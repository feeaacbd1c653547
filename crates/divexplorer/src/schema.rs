//! Dataset schema: named attributes with finite, discrete value domains.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::item::{Item, ItemId};

/// One discrete attribute: a name and the display labels of its values.
///
/// Value *codes* are indices into `values`; rows of a
/// [`crate::DiscreteDataset`] store codes, not labels.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Attribute {
    /// Attribute name, e.g. `"race"`.
    pub name: String,
    /// Display labels of the domain values, e.g. `["Afr-Am", "Cauc"]`.
    pub values: Vec<String>,
}

impl Attribute {
    /// Creates an attribute from string-like parts.
    pub fn new(
        name: impl Into<String>,
        values: impl IntoIterator<Item = impl Into<String>>,
    ) -> Self {
        Attribute {
            name: name.into(),
            values: values.into_iter().map(Into::into).collect(),
        }
    }

    /// Domain cardinality `m_a`.
    pub fn cardinality(&self) -> usize {
        self.values.len()
    }
}

/// An ordered set of attributes, plus the mapping between `(attribute,
/// value)` pairs and the dense global [`ItemId`] space used by mining.
///
/// Items of attribute `a` occupy the contiguous id range
/// `[offset(a), offset(a) + m_a)`; because every dataset row carries exactly
/// one value per attribute, no frequent itemset can contain two items of the
/// same attribute — the itemset well-formedness condition of §3.1 holds by
/// construction.
///
/// Every dataset, report and artifact built from one table holds its
/// schema, so the storage sits behind one [`Arc`]: a clone shares it, and
/// cloning or dropping a schema costs O(1) whatever its size. Equality,
/// `Debug` output and the JSON form are those of the two fields.
#[derive(Clone, PartialEq, Eq)]
pub struct Schema(Arc<Parts>);

/// The storage a [`Schema`] and its clones share.
#[derive(PartialEq, Eq, Serialize, Deserialize)]
struct Parts {
    attributes: Vec<Attribute>,
    /// `offsets[a]` is the first item id of attribute `a`;
    /// `offsets[n]` is the total item count.
    offsets: Vec<u32>,
}

impl fmt::Debug for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Schema")
            .field("attributes", &self.0.attributes)
            .field("offsets", &self.0.offsets)
            .finish()
    }
}

impl Serialize for Schema {
    fn to_value(&self) -> serde::Value {
        self.0.to_value()
    }
}

impl Deserialize for Schema {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Parts::from_value(v).map(|parts| Schema(Arc::new(parts)))
    }
}

impl Schema {
    /// Builds a schema from attributes.
    pub fn new(attributes: Vec<Attribute>) -> Self {
        let mut offsets = Vec::with_capacity(attributes.len() + 1);
        let mut total = 0u32;
        offsets.push(0);
        for attr in &attributes {
            total += attr.cardinality() as u32;
            offsets.push(total);
        }
        Schema(Arc::new(Parts {
            attributes,
            offsets,
        }))
    }

    /// Number of attributes `|A|`.
    pub fn n_attributes(&self) -> usize {
        self.0.attributes.len()
    }

    /// Total number of items `Σ_a m_a` (the mining item-universe size).
    pub fn n_items(&self) -> u32 {
        *self.0.offsets.last().unwrap()
    }

    /// The attributes in order.
    pub fn attributes(&self) -> &[Attribute] {
        &self.0.attributes
    }

    /// The attribute at index `a`.
    pub fn attribute(&self, a: usize) -> &Attribute {
        &self.0.attributes[a]
    }

    /// Looks up an attribute index by name.
    pub fn attribute_index(&self, name: &str) -> Option<usize> {
        self.0.attributes.iter().position(|attr| attr.name == name)
    }

    /// Domain cardinality `m_a` of attribute `a`.
    pub fn cardinality(&self, a: usize) -> usize {
        self.0.attributes[a].cardinality()
    }

    /// Global item id of `(attribute a, value code c)`.
    pub fn item_id(&self, a: usize, c: usize) -> ItemId {
        debug_assert!(c < self.cardinality(a), "value code out of domain");
        self.0.offsets[a] + c as u32
    }

    /// Inverse of [`Schema::item_id`].
    pub fn decode(&self, id: ItemId) -> Item {
        debug_assert!(id < self.n_items(), "item id out of schema");
        // offsets is sorted; find the attribute whose range contains id.
        let a = match self.0.offsets.binary_search(&id) {
            Ok(pos) if pos < self.0.attributes.len() => pos,
            Ok(pos) => pos - 1,
            Err(pos) => pos - 1,
        };
        Item {
            attribute: a as u16,
            value: (id - self.0.offsets[a]) as u16,
        }
    }

    /// Looks up the item id for `"attr"` and `"value"` display names.
    pub fn item_by_name(&self, attribute: &str, value: &str) -> Option<ItemId> {
        let a = self.attribute_index(attribute)?;
        let c = self.0.attributes[a]
            .values
            .iter()
            .position(|v| v == value)?;
        Some(self.item_id(a, c))
    }

    /// Renders one item as `attr=value`.
    pub fn display_item(&self, id: ItemId) -> String {
        let item = self.decode(id);
        let attr = &self.0.attributes[item.attribute as usize];
        format!("{}={}", attr.name, attr.values[item.value as usize])
    }

    /// Renders a sorted itemset as `attr1=v1, attr2=v2, …` (the paper's
    /// pattern notation). The empty itemset renders as `⟨∅⟩`.
    pub fn display_itemset(&self, items: &[ItemId]) -> String {
        if items.is_empty() {
            return "⟨∅⟩".to_string();
        }
        items
            .iter()
            .map(|&id| self.display_item(id))
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// The set of attribute indices referenced by an itemset (`attr(I)`).
    pub fn itemset_attributes(&self, items: &[ItemId]) -> Vec<usize> {
        let mut attrs: Vec<usize> = items
            .iter()
            .map(|&id| self.decode(id).attribute as usize)
            .collect();
        attrs.sort_unstable();
        attrs.dedup();
        attrs
    }

    /// Product of domain cardinalities over the attributes of `items`
    /// (`Π_{b ∈ attr(I)} m_b`), the normalizer of the paper's Eq. 6/8,
    /// multiplied in attribute order. `items` may come in any order.
    pub fn domain_product(&self, items: &[ItemId]) -> f64 {
        if !items.windows(2).all(|w| w[0] <= w[1]) {
            let mut sorted = items.to_vec();
            sorted.sort_unstable();
            return self.domain_product(&sorted);
        }
        // Sorted items visit their attributes in ascending order, so
        // skipping repeats dedups attr(I) without collecting it.
        let mut product = 1.0;
        let mut last = None;
        for &id in items {
            let a = self.decode(id).attribute;
            if last != Some(a) {
                product *= self.cardinality(a as usize) as f64;
                last = Some(a);
            }
        }
        product
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::new("sex", ["M", "F"]),
            Attribute::new("age", ["<25", "25-45", ">45"]),
            Attribute::new("race", ["Afr-Am", "Cauc"]),
        ])
    }

    #[test]
    fn item_ids_are_dense_and_contiguous() {
        let s = schema();
        assert_eq!(s.n_items(), 7);
        assert_eq!(s.item_id(0, 0), 0);
        assert_eq!(s.item_id(0, 1), 1);
        assert_eq!(s.item_id(1, 0), 2);
        assert_eq!(s.item_id(2, 1), 6);
    }

    #[test]
    fn decode_round_trips_all_items() {
        let s = schema();
        for a in 0..s.n_attributes() {
            for c in 0..s.cardinality(a) {
                let id = s.item_id(a, c);
                let item = s.decode(id);
                assert_eq!((item.attribute as usize, item.value as usize), (a, c));
            }
        }
    }

    #[test]
    fn display_matches_paper_notation() {
        let s = schema();
        assert_eq!(s.display_item(s.item_id(1, 2)), "age=>45");
        assert_eq!(
            s.display_itemset(&[s.item_id(0, 0), s.item_id(2, 0)]),
            "sex=M, race=Afr-Am"
        );
        assert_eq!(s.display_itemset(&[]), "⟨∅⟩");
    }

    #[test]
    fn item_by_name_finds_ids() {
        let s = schema();
        assert_eq!(s.item_by_name("age", "25-45"), Some(3));
        assert_eq!(s.item_by_name("age", "nope"), None);
        assert_eq!(s.item_by_name("nope", "M"), None);
    }

    #[test]
    fn a_clone_shares_its_storage() {
        let s = schema();
        let c = s.clone();
        assert!(Arc::ptr_eq(&s.0, &c.0), "a clone must not copy the schema");
        assert_eq!(c, s);
        // Equality compares contents, not storage.
        assert_eq!(schema(), s);
        assert!(!Arc::ptr_eq(&schema().0, &s.0));
        assert_ne!(Schema::new(vec![Attribute::new("sex", ["M", "F"])]), s);
    }

    /// The `Debug` and JSON forms are those of the two fields, as when
    /// they were the struct's own. The dataset hash of `.dxd` artifacts
    /// hashes that JSON, so it must not move by a byte.
    #[test]
    fn debug_and_json_forms_are_the_fields() {
        let s = schema();
        assert_eq!(
            format!("{s:?}"),
            "Schema { attributes: [\
             Attribute { name: \"sex\", values: [\"M\", \"F\"] }, \
             Attribute { name: \"age\", values: [\"<25\", \"25-45\", \">45\"] }, \
             Attribute { name: \"race\", values: [\"Afr-Am\", \"Cauc\"] }], \
             offsets: [0, 2, 5, 7] }"
        );
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(
            json,
            "{\"attributes\":[\
             {\"name\":\"sex\",\"values\":[\"M\",\"F\"]},\
             {\"name\":\"age\",\"values\":[\"<25\",\"25-45\",\">45\"]},\
             {\"name\":\"race\",\"values\":[\"Afr-Am\",\"Cauc\"]}],\
             \"offsets\":[0,2,5,7]}"
        );
        let back: Schema = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    #[test]
    fn itemset_attributes_and_domain_product() {
        let s = schema();
        let items = [s.item_id(0, 1), s.item_id(2, 0)];
        assert_eq!(s.itemset_attributes(&items), vec![0, 2]);
        assert_eq!(s.domain_product(&items), 4.0); // m_sex * m_race = 2*2
        assert_eq!(s.domain_product(&[]), 1.0);
        // Two values of one attribute count its domain once, in any order.
        let same_attribute = [s.item_id(1, 0), s.item_id(1, 2), s.item_id(2, 1)];
        assert_eq!(s.domain_product(&same_attribute), 6.0);
        let unsorted = [s.item_id(1, 2), s.item_id(2, 1), s.item_id(1, 0)];
        assert_eq!(s.domain_product(&unsorted), 6.0);
    }
}
