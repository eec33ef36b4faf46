//! DESIGN.md § Observability mirrors `qpo_obs::vocab` by hand: one row
//! per kind, `` | `kind` | Role | `name:type[!]`… | `` with `!` marking a
//! required field. This pins the mirror to the two consts, in order.

use qpo_obs::vocab::{FieldType, FIELDS, KINDS};

const DESIGN: &str = include_str!("../../../DESIGN.md");

/// One vocabulary row: kind, role, and `(name, type, required)` per field.
type Row = (String, String, Vec<(String, String, bool)>);

/// The rows of the table headed `| kind | role | fields | …` in `doc`.
fn table(doc: &str) -> Vec<Row> {
    let rows = doc
        .lines()
        .skip_while(|l| !l.starts_with("| kind | role | fields |"))
        .skip(2) // the header and its `|---|` rule
        .take_while(|l| l.starts_with('|'));
    rows.map(|row| {
        let cells: Vec<&str> = row.split('|').map(str::trim).collect();
        let fields = cells[3].split_whitespace().map(|f| {
            let f = f.trim_matches('`');
            let (f, required) = f.strip_suffix('!').map_or((f, false), |f| (f, true));
            let (name, ty) = f.split_once(':').unwrap_or_else(|| panic!("{row}: {f}"));
            (name.to_owned(), ty.to_owned(), required)
        });
        let kind = cells[1].trim_matches('`').to_owned();
        (kind, cells[2].to_owned(), fields.collect())
    })
    .collect()
}

/// The same rows, from `KINDS` and `FIELDS`.
fn code() -> Vec<Row> {
    let ty = |t: FieldType| match t {
        FieldType::U64 => "u64",
        FieldType::F64 => "f64",
        FieldType::Str => "str",
        FieldType::Bool => "bool",
    };
    let fields = |kind: &str| {
        let of_kind = FIELDS.iter().filter(|f| f.kind == kind);
        of_kind
            .map(|f| (f.name.to_owned(), ty(f.ty).to_owned(), f.required))
            .collect()
    };
    KINDS
        .iter()
        .map(|(kind, role)| (kind.to_string(), format!("{role:?}"), fields(kind)))
        .collect()
}

#[test]
fn design_vocabulary_table_matches_the_consts() {
    let doc = table(DESIGN);
    assert_eq!(doc.len(), KINDS.len(), "one DESIGN.md row per kind");
    for (doc, code) in doc.iter().zip(code()) {
        assert_eq!(*doc, code, "DESIGN.md row vs vocab.rs");
    }
}

#[test]
fn a_dropped_row_or_field_is_caught() {
    let dropped_row: String = DESIGN
        .lines()
        .filter(|l| !l.starts_with("| `memo_hit` |"))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_ne!(table(&dropped_row), code());
    let dropped_field = DESIGN.replacen(" `warm:bool`", "", 1);
    assert_ne!(dropped_field, DESIGN);
    assert_ne!(table(&dropped_field), code());
}
