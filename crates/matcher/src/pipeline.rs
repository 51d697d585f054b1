//! Plan wiring: data statistics → cost model, and RCKs → sort keys.
//!
//! Every function here is **schema-agnostic**: inputs are the MD set, the
//! target lists and the relations/schema pair under consideration. Encoding
//! choices (Soundex for names, digit extraction for phones and zips) are
//! driven by the schemas' [`AttrKind`] metadata — attribute names never
//! appear. The paper's concrete configurations (its manual baselines and
//! fixed windowing keys) live with the experiments in `crates/bench`.
//!
//! 1. install per-pair `lt` statistics measured on the instances (the cost
//!    model's length term);
//! 2. derive windowing keys from RCK attributes (the paper's RCK-based
//!    configurations).

use crate::sortkey::{Encoding, KeyField, SortKey};
use matchrules_core::cost::{CostModel, PairStats};
use matchrules_core::dependency::MatchingDependency;
use matchrules_core::relative_key::{RelativeKey, Target};
use matchrules_core::schema::{AttrId, AttrKind, SchemaPair};

/// Installs scaled `lt` statistics into an existing cost model from
/// per-attribute average lengths (one entry per schema attribute, as
/// produced by [`Relation::avg_lengths`](matchrules_data::relation::Relation::avg_lengths)).
///
/// Lengths are scaled into `\[0, 1\]` (divided by the longest average) so the
/// three cost terms stay commensurable.
pub fn apply_length_stats(
    model: &mut CostModel,
    sigma: &[MatchingDependency],
    target: &Target,
    left_lens: &[f64],
    right_lens: &[f64],
) {
    let pairs = matchrules_core::rck::pairing(sigma, target);
    let max_len =
        pairs.iter().map(|&(l, r)| (left_lens[l] + right_lens[r]) / 2.0).fold(1.0f64, f64::max);
    for (l, r) in pairs {
        let avg = (left_lens[l] + right_lens[r]) / 2.0;
        model.set_stats(l, r, PairStats { avg_len: avg / max_len, accuracy: 1.0 });
    }
}

/// Encoding chosen per attribute kind when turning key atoms into sort/block
/// fields: names get Soundex, phones/zips digits, the rest standardized
/// text. The kind is read from the *left* schema's metadata (comparable
/// attributes share semantics by construction).
pub fn field_for(pair: &SchemaPair, left: AttrId, right: AttrId) -> KeyField {
    match pair.left().attr_kind(left) {
        AttrKind::GivenName | AttrKind::Surname => {
            KeyField { left, right, encoding: Encoding::Soundex, prefix: 4 }
        }
        // Short prefixes absorb trailing typos — blocking keys must survive
        // the error ladder, not identify tuples.
        AttrKind::Phone | AttrKind::Zip => {
            KeyField { left, right, encoding: Encoding::Digits, prefix: 3 }
        }
        _ => KeyField { left, right, encoding: Encoding::Standardized, prefix: 4 },
    }
}

/// Sort keys derived from the top RCKs (Exp-4's RCK-based windowing): the
/// leading atoms of the first two keys become fields.
pub fn rck_sort_keys(pair: &SchemaPair, rcks: &[RelativeKey]) -> Vec<SortKey> {
    rcks.iter()
        .take(2)
        .map(|key| {
            let fields: Vec<KeyField> =
                key.atoms().iter().take(3).map(|a| field_for(pair, a.left, a.right)).collect();
            SortKey::new(fields)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use matchrules_core::paper;
    use matchrules_core::rck::find_rcks;
    use matchrules_data::dirty::{generate_dirty, NoiseConfig};

    #[test]
    fn cost_model_carries_scaled_lengths() {
        let setting = paper::extended();
        let cfg = NoiseConfig { seed: 2, ..Default::default() };
        let data = generate_dirty(&setting.pair, &setting.target, 60, &cfg);
        let mut model = CostModel::uniform();
        apply_length_stats(
            &mut model,
            &setting.sigma,
            &setting.target,
            &data.credit.avg_lengths(),
            &data.billing.avg_lengths(),
        );
        let l = |n: &str| setting.pair.left().attr(n).unwrap();
        let r = |n: &str| setting.pair.right().attr(n).unwrap();
        // street values are longer than state values → higher cost.
        let street = model.cost(l("street"), r("street"));
        let state = model.cost(l("state"), r("state"));
        assert!(street > state, "street {street} vs state {state}");
    }

    #[test]
    fn derived_keys_are_well_formed() {
        let setting = paper::extended();
        let rcks = find_rcks(&setting.sigma, &setting.target, 5, &mut CostModel::uniform()).keys;
        let sort_keys = rck_sort_keys(&setting.pair, &rcks);
        assert_eq!(sort_keys.len(), 2);
        assert!(sort_keys.iter().all(|k| !k.fields().is_empty() && k.fields().len() <= 3));
    }

    #[test]
    fn encodings_dispatch_on_kind_not_name() {
        use matchrules_core::schema::{AttrKind, Schema, SchemaPair};
        use std::sync::Arc;
        // A schema with *none* of the paper's attribute names.
        let products = Arc::new(
            Schema::kinded(
                "products",
                &[
                    ("maker_contact", AttrKind::Phone),
                    ("brand_owner", AttrKind::Surname),
                    ("postcode", AttrKind::Zip),
                    ("blurb", AttrKind::FreeText),
                ],
            )
            .unwrap(),
        );
        let pair = SchemaPair::reflexive(products);
        assert_eq!(field_for(&pair, 0, 0).encoding, Encoding::Digits);
        assert_eq!(field_for(&pair, 1, 1).encoding, Encoding::Soundex);
        assert_eq!(field_for(&pair, 2, 2).encoding, Encoding::Digits);
        assert_eq!(field_for(&pair, 3, 3).encoding, Encoding::Standardized);
    }

    #[test]
    fn paper_kinds_reproduce_paper_encodings() {
        let setting = paper::extended();
        let l = setting.pair.left().attr("LN").unwrap();
        let r = setting.pair.right().attr("LN").unwrap();
        assert_eq!(field_for(&setting.pair, l, r).encoding, Encoding::Soundex);
        let lt = setting.pair.left().attr("tel").unwrap();
        let rt = setting.pair.right().attr("phn").unwrap();
        assert_eq!(field_for(&setting.pair, lt, rt).encoding, Encoding::Digits);
    }
}
