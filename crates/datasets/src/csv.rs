//! Minimal CSV loading for user-supplied tabular data.
//!
//! Parses a header + rows, infers column types (numeric columns are
//! quantile-binned, everything else is categorical), and produces a
//! [`DiscreteDataset`] ready for exploration. Quoted fields and embedded
//! separators are supported; embedded newlines are not.

use divexplorer::{BinningStrategy, DatasetBuilder, DiscreteDataset};

/// Widest table accepted by [`parse_csv`]: a guard against malformed or
/// adversarial input (e.g. a long binary blob on one line) allocating one
/// `Vec` per "column" of garbage.
pub const MAX_COLUMNS: usize = 10_000;

/// Errors from CSV parsing.
#[derive(Debug, Clone, PartialEq)]
pub enum CsvError {
    /// The input has no header line.
    Empty,
    /// A data row has a different field count than the header.
    RaggedRow {
        /// 1-based line number.
        line: usize,
        /// Fields found.
        got: usize,
        /// Fields expected.
        expected: usize,
    },
    /// A quoted field was never closed.
    UnterminatedQuote {
        /// 1-based line number.
        line: usize,
    },
    /// The file has a header but no data rows.
    NoRows,
    /// A line contains a NUL byte — the input is binary, not CSV.
    EmbeddedNul {
        /// 1-based line number.
        line: usize,
    },
    /// A line contains a bare carriage return: either CR-only (classic
    /// Mac) line endings, which would silently collapse the whole file
    /// into one row, or a CR embedded in a field.
    BareCarriageReturn {
        /// 1-based line number.
        line: usize,
    },
    /// The header declares more than [`MAX_COLUMNS`] columns.
    TooManyColumns {
        /// Columns declared.
        got: usize,
    },
    /// The parsed table cannot be assembled into a dataset.
    InvalidTable(String),
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::Empty => write!(f, "empty input"),
            CsvError::RaggedRow {
                line,
                got,
                expected,
            } => {
                write!(f, "line {line}: {got} fields, expected {expected}")
            }
            CsvError::UnterminatedQuote { line } => {
                write!(f, "line {line}: unterminated quoted field")
            }
            CsvError::NoRows => write!(f, "no data rows"),
            CsvError::EmbeddedNul { line } => {
                write!(f, "line {line}: embedded NUL byte (binary input?)")
            }
            CsvError::BareCarriageReturn { line } => {
                write!(
                    f,
                    "line {line}: bare carriage return (CR-only line endings are not supported)"
                )
            }
            CsvError::TooManyColumns { got } => {
                write!(f, "header declares {got} columns (limit {MAX_COLUMNS})")
            }
            CsvError::InvalidTable(msg) => write!(f, "invalid table: {msg}"),
        }
    }
}

impl std::error::Error for CsvError {}

/// A parsed CSV: header plus string cells, column-major.
#[derive(Debug, Clone, PartialEq)]
pub struct CsvTable {
    /// Column names from the header.
    pub header: Vec<String>,
    /// Column-major cells: `columns[c][r]`.
    pub columns: Vec<Vec<String>>,
}

impl CsvTable {
    /// Number of data rows.
    pub fn n_rows(&self) -> usize {
        self.columns.first().map_or(0, |c| c.len())
    }

    /// Converts the table into a [`DiscreteDataset`], binning numeric
    /// columns into `numeric_bins` quantile bins and treating all other
    /// columns as categorical.
    pub fn into_dataset(self, numeric_bins: usize) -> Result<DiscreteDataset, CsvError> {
        if self.n_rows() == 0 {
            return Err(CsvError::NoRows);
        }
        let mut b = DatasetBuilder::new();
        for (name, column) in self.header.iter().zip(&self.columns) {
            let numeric: Option<Vec<f64>> = column
                .iter()
                .map(|cell| cell.trim().parse::<f64>().ok())
                .collect();
            match numeric {
                Some(values) if values.iter().all(|v| !v.is_nan()) => {
                    b.continuous(name, &values, &BinningStrategy::Quantile(numeric_bins));
                }
                _ => {
                    let refs: Vec<&str> = column.iter().map(String::as_str).collect();
                    b.categorical_from_strings(name, &refs);
                }
            }
        }
        // Rectangularity is guaranteed by `parse_csv`, but a hand-built
        // table can violate it — surface the builder's error instead of
        // panicking.
        b.build().map_err(|e| CsvError::InvalidTable(e.to_string()))
    }
}

/// Serializes a dataset (plus its label and prediction vectors) back into
/// CSV, with `label`/`pred` as the last two columns — the inverse of the
/// loading path, so generated benchmarks can be fed to the CLI or to
/// external tools. Values containing the separator or quotes are quoted.
pub fn write_csv(
    data: &DiscreteDataset,
    v: &[bool],
    u: &[bool],
    label_column: &str,
    pred_column: &str,
) -> String {
    assert_eq!(v.len(), data.n_rows(), "label length mismatch");
    assert_eq!(u.len(), data.n_rows(), "prediction length mismatch");
    let schema = data.schema();
    let mut out = String::new();
    let quote = |cell: &str| -> String {
        if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
            format!("\"{}\"", cell.replace('"', "\"\""))
        } else {
            cell.to_string()
        }
    };
    let header: Vec<String> = schema
        .attributes()
        .iter()
        .map(|a| quote(&a.name))
        .chain([label_column.to_string(), pred_column.to_string()])
        .collect();
    out.push_str(&header.join(","));
    out.push('\n');
    for r in 0..data.n_rows() {
        let mut cells: Vec<String> = Vec::with_capacity(schema.n_attributes() + 2);
        for (a, &code) in data.row(r).iter().enumerate() {
            cells.push(quote(&schema.attribute(a).values[code as usize]));
        }
        cells.push(if v[r] { "1" } else { "0" }.to_string());
        cells.push(if u[r] { "1" } else { "0" }.to_string());
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    out
}

/// Parses CSV text with the given separator.
pub fn parse_csv(text: &str, separator: char) -> Result<CsvTable, CsvError> {
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty());
    let (_, header_line) = lines.next().ok_or(CsvError::Empty)?;
    let header = split_line(header_line, separator, 1)?;
    let expected = header.len();
    if expected > MAX_COLUMNS {
        return Err(CsvError::TooManyColumns { got: expected });
    }
    let mut columns: Vec<Vec<String>> = vec![Vec::new(); expected];
    for (i, line) in lines {
        let fields = split_line(line, separator, i + 1)?;
        if fields.len() != expected {
            return Err(CsvError::RaggedRow {
                line: i + 1,
                got: fields.len(),
                expected,
            });
        }
        for (c, field) in fields.into_iter().enumerate() {
            columns[c].push(field);
        }
    }
    Ok(CsvTable { header, columns })
}

/// Splits one line into fields, honoring double-quoted fields with `""`
/// escapes.
fn split_line(line: &str, separator: char, line_no: usize) -> Result<Vec<String>, CsvError> {
    if line.contains('\0') {
        return Err(CsvError::EmbeddedNul { line: line_no });
    }
    // `str::lines` strips `\r\n`; any carriage return still present means
    // CR-only line endings (the whole file would parse as one row) or a CR
    // inside a field — reject both explicitly.
    if line.contains('\r') {
        return Err(CsvError::BareCarriageReturn { line: line_no });
    }
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(ch) = chars.next() {
        if in_quotes {
            if ch == '"' {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    field.push('"');
                } else {
                    in_quotes = false;
                }
            } else {
                field.push(ch);
            }
        } else if ch == '"' && field.is_empty() {
            in_quotes = true;
        } else if ch == separator {
            fields.push(std::mem::take(&mut field));
        } else {
            field.push(ch);
        }
    }
    if in_quotes {
        return Err(CsvError::UnterminatedQuote { line: line_no });
    }
    fields.push(field);
    Ok(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_simple_table() {
        let t = parse_csv("a,b\n1,x\n2,y\n", ',').unwrap();
        assert_eq!(t.header, vec!["a", "b"]);
        assert_eq!(t.n_rows(), 2);
        assert_eq!(t.columns[0], vec!["1", "2"]);
        assert_eq!(t.columns[1], vec!["x", "y"]);
    }

    #[test]
    fn quoted_fields_keep_separators() {
        let t = parse_csv("name,msg\nbob,\"hello, world\"\n", ',').unwrap();
        assert_eq!(t.columns[1][0], "hello, world");
    }

    #[test]
    fn double_quote_escapes() {
        let t = parse_csv("q\n\"say \"\"hi\"\"\"\n", ',').unwrap();
        assert_eq!(t.columns[0][0], "say \"hi\"");
    }

    #[test]
    fn ragged_rows_error_with_line_number() {
        let err = parse_csv("a,b\n1\n", ',').unwrap_err();
        assert_eq!(
            err,
            CsvError::RaggedRow {
                line: 2,
                got: 1,
                expected: 2
            }
        );
    }

    #[test]
    fn unterminated_quote_errors() {
        let err = parse_csv("a\n\"oops\n", ',').unwrap_err();
        assert!(matches!(err, CsvError::UnterminatedQuote { .. }));
    }

    #[test]
    fn empty_and_header_only_inputs() {
        assert_eq!(parse_csv("", ',').unwrap_err(), CsvError::Empty);
        let t = parse_csv("a,b\n", ',').unwrap();
        assert_eq!(t.into_dataset(3).unwrap_err(), CsvError::NoRows);
    }

    #[test]
    fn embedded_nul_is_rejected() {
        let err = parse_csv("a,b\n1,\0\n", ',').unwrap_err();
        assert_eq!(err, CsvError::EmbeddedNul { line: 2 });
        let err = parse_csv("a\0b\nx\n", ',').unwrap_err();
        assert_eq!(err, CsvError::EmbeddedNul { line: 1 });
    }

    #[test]
    fn cr_only_line_endings_are_rejected() {
        // Classic-Mac endings: `lines()` sees one line with embedded CRs —
        // without the guard this would parse as a single ragged row.
        let err = parse_csv("a,b\r1,x\r2,y\r", ',').unwrap_err();
        assert_eq!(err, CsvError::BareCarriageReturn { line: 1 });
        // CRLF endings stay fine.
        let t = parse_csv("a,b\r\n1,x\r\n", ',').unwrap();
        assert_eq!(t.columns[1][0], "x");
    }

    #[test]
    fn too_many_columns_is_rejected() {
        let header = vec!["c"; MAX_COLUMNS + 1].join(",");
        let err = parse_csv(&format!("{header}\n"), ',').unwrap_err();
        assert_eq!(
            err,
            CsvError::TooManyColumns {
                got: MAX_COLUMNS + 1
            }
        );
    }

    #[test]
    fn hand_built_ragged_table_errors_instead_of_panicking() {
        let table = CsvTable {
            header: vec!["a".to_string(), "b".to_string()],
            columns: vec![
                vec!["1".to_string(), "2".to_string()],
                vec!["x".to_string()],
            ],
        };
        assert!(matches!(
            table.into_dataset(3),
            Err(CsvError::InvalidTable(_))
        ));
    }

    #[test]
    fn numeric_columns_are_binned_and_strings_kept_categorical() {
        let text = "age,city\n10,rome\n20,turin\n30,rome\n40,milan\n";
        let data = parse_csv(text, ',').unwrap().into_dataset(2).unwrap();
        assert_eq!(data.n_attributes(), 2);
        assert_eq!(data.n_rows(), 4);
        // age got quantile-binned into 2 bins; city has 3 categories.
        assert_eq!(data.schema().attribute(0).cardinality(), 2);
        assert_eq!(data.schema().attribute(1).cardinality(), 3);
    }

    #[test]
    fn semicolon_separator() {
        let t = parse_csv("a;b\n1;2\n", ';').unwrap();
        assert_eq!(t.columns[1][0], "2");
    }

    #[test]
    fn write_csv_round_trips_through_parse() {
        let d = crate::compas::generate(40, 5).into_dataset();
        let csv = write_csv(&d.data, &d.v, &d.u, "y", "yhat");
        let table = parse_csv(&csv, ',').unwrap();
        assert_eq!(table.n_rows(), 40);
        assert_eq!(table.header.len(), d.data.n_attributes() + 2);
        assert_eq!(table.header.last().unwrap(), "yhat");
        // Labels survive.
        let y_col = table.header.iter().position(|h| h == "y").unwrap();
        for (r, &vr) in d.v.iter().enumerate() {
            assert_eq!(table.columns[y_col][r] == "1", vr);
        }
        // Categorical cells match the schema labels.
        let schema = d.data.schema();
        for r in 0..5 {
            assert_eq!(
                table.columns[0][r],
                schema.attribute(0).values[d.data.value(r, 0) as usize]
            );
        }
    }

    #[test]
    fn write_csv_quotes_awkward_values() {
        use divexplorer::DatasetBuilder;
        let mut b = DatasetBuilder::new();
        b.categorical("weird", &["a,b", "c\"d"], &[0, 1]);
        let data = b.build().unwrap();
        let csv = write_csv(&data, &[true, false], &[false, true], "y", "p");
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"c\"\"d\""));
        let parsed = parse_csv(&csv, ',').unwrap();
        assert_eq!(parsed.columns[0][0], "a,b");
        assert_eq!(parsed.columns[0][1], "c\"d");
    }
}
