//! The discrete dataset analyzed by DivExplorer, and a builder that
//! assembles it from categorical and continuous columns.

use crate::discretize::{discretize, BinningStrategy};
use crate::item::ItemId;
use crate::schema::{Attribute, Schema};

/// An `n`-dimensional discrete dataset (§3.1): every attribute takes values
/// from a finite domain, every instance assigns one value per attribute.
///
/// Values are stored row-major as `u16` codes into the schema's domains.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscreteDataset {
    schema: Schema,
    n_rows: usize,
    /// Row-major codes: `codes[r * n_attributes + a]`.
    codes: Vec<u16>,
}

impl DiscreteDataset {
    /// Constructs a dataset from a schema and row-major codes.
    ///
    /// # Panics
    ///
    /// Panics if the code buffer length is not a multiple of the attribute
    /// count, or any code is outside its attribute's domain.
    pub fn from_codes(schema: Schema, codes: Vec<u16>) -> Self {
        let n_attrs = schema.n_attributes();
        assert!(n_attrs > 0, "schema must have at least one attribute");
        assert_eq!(codes.len() % n_attrs, 0, "ragged code buffer");
        let n_rows = codes.len() / n_attrs;
        for (i, &c) in codes.iter().enumerate() {
            let a = i % n_attrs;
            assert!(
                (c as usize) < schema.cardinality(a),
                "row {}: code {} out of domain for attribute {}",
                i / n_attrs,
                c,
                schema.attribute(a).name
            );
        }
        DiscreteDataset {
            schema,
            n_rows,
            codes,
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of instances `|D|`.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of attributes `|A|`.
    pub fn n_attributes(&self) -> usize {
        self.schema.n_attributes()
    }

    /// The value code of attribute `a` in row `r`.
    pub fn value(&self, r: usize, a: usize) -> u16 {
        self.codes[r * self.n_attributes() + a]
    }

    /// The code slice of row `r` (one code per attribute).
    pub fn row(&self, r: usize) -> &[u16] {
        let n = self.n_attributes();
        &self.codes[r * n..(r + 1) * n]
    }

    /// The global item ids of row `r`, sorted ascending.
    ///
    /// Because attribute id ranges are laid out in attribute order, mapping
    /// each `(a, code)` in order already yields sorted ids.
    pub fn row_items(&self, r: usize) -> Vec<ItemId> {
        self.row(r)
            .iter()
            .enumerate()
            .map(|(a, &c)| self.schema.item_id(a, c as usize))
            .collect()
    }

    /// True iff row `r` is covered by the (sorted) itemset: `x ⊨ I`.
    pub fn covers(&self, r: usize, items: &[ItemId]) -> bool {
        items.iter().all(|&id| {
            let item = self.schema.decode(id);
            self.value(r, item.attribute as usize) == item.value
        })
    }

    /// The support set `D(I)`: indices of rows covered by the itemset.
    pub fn support_set(&self, items: &[ItemId]) -> Vec<usize> {
        (0..self.n_rows)
            .filter(|&r| self.covers(r, items))
            .collect()
    }

    /// A new dataset containing the selected rows, in order (same schema).
    pub fn select_rows(&self, rows: &[usize]) -> DiscreteDataset {
        let n = self.n_attributes();
        let mut codes = Vec::with_capacity(rows.len() * n);
        for &r in rows {
            codes.extend_from_slice(self.row(r));
        }
        DiscreteDataset {
            schema: self.schema.clone(),
            n_rows: rows.len(),
            codes,
        }
    }

    /// Converts the dataset into the mining substrate's transaction form:
    /// one transaction per row, one item per attribute.
    pub fn to_transactions(&self) -> fpm::TransactionDb {
        self.transactions_of(0..self.n_rows)
    }

    /// The rows `rows`, in the order given, as a transaction table over
    /// the whole item universe — e.g. only the rows whose prediction
    /// changed, for a delta recount. Built straight from
    /// [`DiscreteDataset::row`]; no sub-dataset is materialized. The
    /// table is sized up front, one item per attribute, and each row is
    /// already in item order (item ids follow attribute offsets), so
    /// nothing is reallocated or sorted.
    pub(crate) fn transactions_of(
        &self,
        rows: impl ExactSizeIterator<Item = usize>,
    ) -> fpm::TransactionDb {
        let mut builder = fpm::TransactionDbBuilder::with_capacity(
            self.schema.n_items(),
            rows.len(),
            rows.len() * self.n_attributes(),
        );
        let mut buf: Vec<ItemId> = Vec::with_capacity(self.n_attributes());
        for r in rows {
            buf.clear();
            for (a, &c) in self.row(r).iter().enumerate() {
                buf.push(self.schema.item_id(a, c as usize));
            }
            builder.push(&buf);
        }
        builder.build()
    }
}

/// Errors produced by [`DatasetBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// No columns were added.
    Empty,
    /// Two columns have different lengths.
    RaggedColumns {
        /// Name of the offending column.
        column: String,
        /// Its length.
        len: usize,
        /// The expected length (that of the first column).
        expected: usize,
    },
    /// A categorical code exceeds the declared domain.
    CodeOutOfDomain {
        /// Name of the offending column.
        column: String,
        /// The first offending row.
        row: usize,
        /// The offending code.
        code: u16,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Empty => write!(f, "no columns were added"),
            BuildError::RaggedColumns {
                column,
                len,
                expected,
            } => write!(
                f,
                "column '{column}' has {len} rows but {expected} were expected"
            ),
            BuildError::CodeOutOfDomain { column, row, code } => {
                write!(f, "column '{column}', row {row}: code {code} out of domain")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Assembles a [`DiscreteDataset`] column by column, discretizing continuous
/// columns on the fly. Column order becomes attribute order.
#[derive(Debug, Default)]
pub struct DatasetBuilder {
    attributes: Vec<Attribute>,
    columns: Vec<Vec<u16>>,
}

impl DatasetBuilder {
    /// Starts an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a categorical column: `labels` is the value domain, `codes` the
    /// per-row indices into it.
    pub fn categorical(
        &mut self,
        name: impl Into<String>,
        labels: &[&str],
        codes: &[u16],
    ) -> &mut Self {
        self.attributes
            .push(Attribute::new(name, labels.iter().copied()));
        self.columns.push(codes.to_vec());
        self
    }

    /// Adds a categorical column of raw string values, inferring the domain
    /// from the distinct values in first-appearance order.
    pub fn categorical_from_strings(
        &mut self,
        name: impl Into<String>,
        values: &[&str],
    ) -> &mut Self {
        let mut labels: Vec<String> = Vec::new();
        let mut codes = Vec::with_capacity(values.len());
        for &v in values {
            let code = match labels.iter().position(|l| l == v) {
                Some(pos) => pos,
                None => {
                    labels.push(v.to_string());
                    labels.len() - 1
                }
            };
            codes.push(code as u16);
        }
        self.attributes.push(Attribute {
            name: name.into(),
            values: labels,
        });
        self.columns.push(codes);
        self
    }

    /// Adds a continuous column, discretized by `strategy`. Bin labels
    /// become the attribute's value domain.
    pub fn continuous(
        &mut self,
        name: impl Into<String>,
        values: &[f64],
        strategy: &BinningStrategy,
    ) -> &mut Self {
        let d = discretize(values, strategy);
        self.attributes.push(Attribute {
            name: name.into(),
            values: d.labels,
        });
        self.columns.push(d.codes);
        self
    }

    /// Finalizes the dataset.
    pub fn build(&self) -> Result<DiscreteDataset, BuildError> {
        if self.attributes.is_empty() {
            return Err(BuildError::Empty);
        }
        let expected = self.columns[0].len();
        for (attr, col) in self.attributes.iter().zip(&self.columns) {
            if col.len() != expected {
                return Err(BuildError::RaggedColumns {
                    column: attr.name.clone(),
                    len: col.len(),
                    expected,
                });
            }
            if let Some((row, &code)) = col
                .iter()
                .enumerate()
                .find(|&(_, &c)| c as usize >= attr.cardinality())
            {
                return Err(BuildError::CodeOutOfDomain {
                    column: attr.name.clone(),
                    row,
                    code,
                });
            }
        }
        // Transpose columns into row-major codes.
        let n_attrs = self.attributes.len();
        let mut codes = vec![0u16; expected * n_attrs];
        for (a, col) in self.columns.iter().enumerate() {
            for (r, &c) in col.iter().enumerate() {
                codes[r * n_attrs + a] = c;
            }
        }
        Ok(DiscreteDataset::from_codes(
            Schema::new(self.attributes.clone()),
            codes,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> DiscreteDataset {
        let mut b = DatasetBuilder::new();
        b.categorical("sex", &["M", "F"], &[0, 1, 0, 1]);
        b.continuous(
            "age",
            &[20.0, 30.0, 50.0, 60.0],
            &BinningStrategy::Custom(vec![40.0]),
        );
        b.build().unwrap()
    }

    #[test]
    fn builder_assembles_rows() {
        let d = small();
        assert_eq!(d.n_rows(), 4);
        assert_eq!(d.n_attributes(), 2);
        assert_eq!(d.row(0), &[0, 0]);
        assert_eq!(d.row(3), &[1, 1]);
        assert_eq!(d.schema().attribute(1).values, vec!["<40", ">=40"]);
    }

    #[test]
    fn row_items_are_sorted_global_ids() {
        let d = small();
        let items = d.row_items(2);
        assert!(items.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(items, vec![0, 3]); // sex=M (id 0), age>=40 (id 3)
    }

    #[test]
    fn covers_and_support_set() {
        let d = small();
        let male = d.schema().item_by_name("sex", "M").unwrap();
        let old = d.schema().item_by_name("age", ">=40").unwrap();
        assert_eq!(d.support_set(&[male]), vec![0, 2]);
        assert_eq!(d.support_set(&[male, old]), vec![2]);
        assert_eq!(d.support_set(&[]), vec![0, 1, 2, 3]);
    }

    #[test]
    fn to_transactions_matches_rows() {
        let d = small();
        let db = d.to_transactions();
        assert_eq!(db.len(), 4);
        for r in 0..4 {
            assert_eq!(db.transaction(r), d.row_items(r).as_slice());
        }
    }

    #[test]
    fn categorical_from_strings_infers_domain() {
        let mut b = DatasetBuilder::new();
        b.categorical_from_strings("color", &["red", "blue", "red", "green"]);
        let d = b.build().unwrap();
        assert_eq!(d.schema().attribute(0).values, vec!["red", "blue", "green"]);
        assert_eq!(d.row(2), &[0]);
    }

    #[test]
    fn ragged_columns_error() {
        let mut b = DatasetBuilder::new();
        b.categorical("a", &["x"], &[0, 0]);
        b.categorical("b", &["y"], &[0]);
        assert!(matches!(b.build(), Err(BuildError::RaggedColumns { .. })));
    }

    #[test]
    fn code_out_of_domain_error() {
        let mut b = DatasetBuilder::new();
        b.categorical("a", &["x", "y"], &[0, 2]);
        let err = b.build().unwrap_err();
        assert!(matches!(
            err,
            BuildError::CodeOutOfDomain {
                row: 1,
                code: 2,
                ..
            }
        ));
    }

    #[test]
    fn empty_builder_errors() {
        assert_eq!(
            DatasetBuilder::new().build().unwrap_err(),
            BuildError::Empty
        );
    }
}
