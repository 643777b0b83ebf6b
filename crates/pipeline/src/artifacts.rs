//! Stage ↔ store payload serialization.
//!
//! The result store treats payloads as opaque JSONL lines; this module is
//! where each pipeline stage defines its line format. Encoders use the
//! flat-object writer from `obs::json` (numbers in Rust's shortest
//! round-trip `{}` form, so every `f64` decodes bit-identically), and
//! decoders are total: any malformed, truncated, or wrong-shaped payload
//! decodes to `None`, which the stages treat as a cache miss — the same
//! recovery posture the store itself takes toward torn blobs.

use summitfold_inference::engine::{Prediction, TargetResult};
use summitfold_inference::ModelId;
use summitfold_msa::features::FeatureSet;
use summitfold_obs::json::{parse_object, ObjectWriter, Value};
use summitfold_protein::aa::AminoAcid;
use summitfold_protein::geom::Vec3;
use summitfold_protein::structure::Structure;
use summitfold_relax::protocol::RelaxOutcome;
use summitfold_relax::violations::Violations;
use summitfold_store::StoreKey;

/// Encode a coordinate list as `"x y z;x y z;..."` in round-trip `{}`
/// form.
fn coords_to_string(coords: &[Vec3]) -> String {
    let mut out = String::new();
    for (i, v) in coords.iter().enumerate() {
        if i > 0 {
            out.push(';');
        }
        out.push_str(&format!("{} {} {}", v.x, v.y, v.z));
    }
    out
}

fn coords_from_string(text: &str) -> Option<Vec<Vec3>> {
    if text.is_empty() {
        return Some(Vec::new());
    }
    text.split(';')
        .map(|triple| {
            let mut parts = triple.split(' ');
            let x = parts.next()?.parse().ok()?;
            let y = parts.next()?.parse().ok()?;
            let z = parts.next()?.parse().ok()?;
            if parts.next().is_some() {
                return None;
            }
            Some(Vec3::new(x, y, z))
        })
        .collect()
}

fn floats_to_string(vals: &[f64]) -> String {
    let mut out = String::new();
    for (i, v) in vals.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(&format!("{v}"));
    }
    out
}

fn floats_from_string(text: &str) -> Option<Vec<f64>> {
    if text.is_empty() {
        return Some(Vec::new());
    }
    text.split(' ').map(|t| t.parse().ok()).collect()
}

/// The store content string for a target sequence, optionally extended
/// with an upstream fingerprint (everything after the first `|` is
/// excluded from near-duplicate sequence comparison).
#[must_use]
pub fn content_with_fingerprint(letters: &str, fingerprint: Option<&str>) -> String {
    match fingerprint {
        Some(fp) => format!("{letters}|{fp}"),
        None => letters.to_owned(),
    }
}

/// A compact, deterministic fingerprint of a feature set — folded into
/// the inference-stage content string so predictions made from different
/// (e.g. near-hit-discounted) features address different artifacts.
#[must_use]
pub fn feature_fingerprint(f: &FeatureSet) -> String {
    StoreKey::derive(
        "features",
        "v1",
        &format!(
            "{}|{}|{}|{}|{}",
            f.length,
            f.richness,
            f.neff,
            f.coverage,
            u8::from(f.has_templates)
        ),
    )
    .to_hex()
}

/// A deterministic fingerprint of a structure's geometry (id excluded) —
/// the relax-stage content component that makes coordinate changes, not
/// just sequence changes, miss the cache.
#[must_use]
pub fn structure_fingerprint(s: &Structure) -> String {
    let plddt = s.plddt.as_deref().map(floats_to_string).unwrap_or_default();
    StoreKey::derive(
        "structure",
        "v1",
        &format!(
            "{}|{}|{}|{}",
            residues_to_letters(&s.residues),
            coords_to_string(&s.ca),
            coords_to_string(&s.sidechain),
            plddt
        ),
    )
    .to_hex()
}

fn residues_to_letters(residues: &[AminoAcid]) -> String {
    residues.iter().map(|aa| aa.code()).collect()
}

fn residues_from_letters(text: &str) -> Option<Vec<AminoAcid>> {
    text.chars().map(AminoAcid::from_code).collect()
}

/// Encode a feature set as a single payload line.
#[must_use]
pub fn encode_feature_set(f: &FeatureSet) -> Vec<String> {
    let mut w = ObjectWriter::new();
    w.str_field("target_id", &f.target_id);
    w.int_field("length", f.length as u64);
    w.num_field("richness", f.richness);
    w.num_field("neff", f.neff);
    w.num_field("coverage", f.coverage);
    w.int_field("has_templates", u64::from(f.has_templates));
    vec![w.finish()]
}

/// Decode [`encode_feature_set`]'s payload; `None` on any malformation.
#[must_use]
pub fn decode_feature_set(payload: &[String]) -> Option<FeatureSet> {
    let [line] = payload else { return None };
    let obj = parse_object(line).ok()?;
    Some(FeatureSet {
        target_id: obj.str("target_id").ok()?.to_owned(),
        length: obj.uint("length").ok()?,
        richness: obj.num("richness").ok()?,
        neff: obj.num("neff").ok()?,
        coverage: obj.num("coverage").ok()?,
        has_templates: obj.flag("has_templates").ok()?,
    })
}

fn encode_structure(s: &Structure) -> String {
    let mut w = ObjectWriter::new();
    w.str_field("id", &s.id);
    w.str_field("residues", &residues_to_letters(&s.residues));
    w.str_field("ca", &coords_to_string(&s.ca));
    w.str_field("sidechain", &coords_to_string(&s.sidechain));
    match &s.plddt {
        Some(p) => w.str_field("plddt", &floats_to_string(p)),
        None => w.null_field("plddt"),
    }
    w.finish()
}

fn decode_structure(line: &str) -> Option<Structure> {
    let obj = parse_object(line).ok()?;
    let residues = residues_from_letters(obj.str("residues").ok()?)?;
    let ca = coords_from_string(obj.str("ca").ok()?)?;
    let sidechain = coords_from_string(obj.str("sidechain").ok()?)?;
    if residues.len() != ca.len() || residues.len() != sidechain.len() {
        return None;
    }
    let mut s = Structure::new(obj.str("id").ok()?, residues, ca, sidechain);
    s.plddt = match obj.get("plddt")? {
        Value::Null => None,
        Value::Str(text) => {
            let p = floats_from_string(text)?;
            if p.len() != s.len() {
                return None;
            }
            Some(p)
        }
        Value::Num(_) => return None,
    };
    Some(s)
}

fn encode_prediction(p: &Prediction) -> String {
    let mut w = ObjectWriter::new();
    w.str_field("target_id", &p.target_id);
    w.int_field("model", u64::from(p.model.0));
    w.int_field("recycles", u64::from(p.recycles));
    w.int_field("converged", u64::from(p.converged));
    w.num_field("ptms", p.ptms);
    w.num_field("plddt_mean", p.plddt_mean);
    w.num_field("plddt_frac70", p.plddt_frac70);
    w.num_field("plddt_frac90", p.plddt_frac90);
    w.num_field("final_error", p.final_error);
    w.int_field("challenging", u64::from(p.challenging));
    w.num_field("gpu_seconds", p.gpu_seconds);
    w.int_field("peak_mem_bytes", p.peak_mem_bytes);
    w.finish()
}

fn decode_prediction(line: &str, structure: Option<Structure>) -> Option<Prediction> {
    let obj = parse_object(line).ok()?;
    Some(Prediction {
        target_id: obj.str("target_id").ok()?.to_owned(),
        model: ModelId(obj.uint("model").ok()?),
        recycles: obj.uint("recycles").ok()?,
        converged: obj.flag("converged").ok()?,
        ptms: obj.num("ptms").ok()?,
        plddt_mean: obj.num("plddt_mean").ok()?,
        plddt_frac70: obj.num("plddt_frac70").ok()?,
        plddt_frac90: obj.num("plddt_frac90").ok()?,
        final_error: obj.num("final_error").ok()?,
        challenging: obj.flag("challenging").ok()?,
        structure,
        gpu_seconds: obj.num("gpu_seconds").ok()?,
        peak_mem_bytes: obj.uint("peak_mem_bytes").ok()?,
    })
}

/// Encode a target result (header line + one line per prediction, each
/// optionally followed by a structure line).
#[must_use]
pub fn encode_target_result(r: &TargetResult) -> Vec<String> {
    let mut lines = Vec::with_capacity(1 + r.predictions.len());
    let mut w = ObjectWriter::new();
    w.str_field("target_id", &r.target_id);
    w.int_field("top_index", r.top_index as u64);
    w.int_field("predictions", r.predictions.len() as u64);
    lines.push(w.finish());
    for p in &r.predictions {
        lines.push(encode_prediction(p));
        if let Some(s) = &p.structure {
            lines.push(encode_structure(s));
        }
    }
    lines
}

/// Decode [`encode_target_result`]'s payload; `None` on any
/// malformation.
#[must_use]
pub fn decode_target_result(payload: &[String]) -> Option<TargetResult> {
    let (header_line, rest) = payload.split_first()?;
    let header = parse_object(header_line).ok()?;
    let count = header.uint("predictions").ok()?;
    let top_index = header.uint("top_index").ok()?;
    let mut predictions = Vec::with_capacity(count);
    let mut i = 0usize;
    while predictions.len() < count {
        let line = rest.get(i)?;
        // A structure line always directly follows its prediction line;
        // detect it by its residue field.
        let with_structure = rest
            .get(i + 1)
            .and_then(|l| parse_object(l).ok())
            .is_some_and(|o| o.contains_key("residues"));
        let structure = if with_structure {
            Some(decode_structure(&rest[i + 1])?)
        } else {
            None
        };
        predictions.push(decode_prediction(line, structure)?);
        i += if with_structure { 2 } else { 1 };
    }
    if i != rest.len() || top_index >= count.max(1) {
        return None;
    }
    Some(TargetResult {
        target_id: header.str("target_id").ok()?.to_owned(),
        predictions,
        top_index,
    })
}

/// Encode a relaxation outcome (scalar header line + structure line).
#[must_use]
pub fn encode_relax_outcome(o: &RelaxOutcome) -> Vec<String> {
    let mut w = ObjectWriter::new();
    w.int_field("rounds", o.rounds as u64);
    w.int_field("total_iterations", o.total_iterations as u64);
    w.int_field("violation_checks", o.violation_checks as u64);
    w.int_field("initial_clashes", o.initial_violations.clashes as u64);
    w.int_field("initial_bumps", o.initial_violations.bumps as u64);
    w.int_field("final_clashes", o.final_violations.clashes as u64);
    w.int_field("final_bumps", o.final_violations.bumps as u64);
    w.num_field("energy_initial", o.energy_initial);
    w.num_field("energy_final", o.energy_final);
    vec![w.finish(), encode_structure(&o.structure)]
}

/// Decode [`encode_relax_outcome`]'s payload; `None` on any
/// malformation.
#[must_use]
pub fn decode_relax_outcome(payload: &[String]) -> Option<RelaxOutcome> {
    let [header_line, structure_line] = payload else {
        return None;
    };
    let obj = parse_object(header_line).ok()?;
    Some(RelaxOutcome {
        structure: decode_structure(structure_line)?,
        rounds: obj.uint("rounds").ok()?,
        total_iterations: obj.uint("total_iterations").ok()?,
        violation_checks: obj.uint("violation_checks").ok()?,
        initial_violations: Violations {
            clashes: obj.uint("initial_clashes").ok()?,
            bumps: obj.uint("initial_bumps").ok()?,
        },
        final_violations: Violations {
            clashes: obj.uint("final_clashes").ok()?,
            bumps: obj.uint("final_bumps").ok()?,
        },
        energy_initial: obj.num("energy_initial").ok()?,
        energy_final: obj.num("energy_final").ok()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use summitfold_inference::engine::InferenceEngine;
    use summitfold_inference::{Fidelity, Preset};
    use summitfold_protein::proteome::{Proteome, Species};
    use summitfold_relax::protocol::{relax, Protocol};

    fn entries() -> Vec<summitfold_protein::proteome::ProteinEntry> {
        Proteome::generate_scaled(Species::DVulgaris, 0.005).proteins
    }

    #[test]
    fn feature_set_round_trips() {
        for e in entries() {
            let f = FeatureSet::synthetic(&e);
            let decoded = decode_feature_set(&encode_feature_set(&f)).unwrap();
            assert_eq!(decoded.target_id, f.target_id);
            assert_eq!(decoded.length, f.length);
            assert_eq!(decoded.richness.to_bits(), f.richness.to_bits());
            assert_eq!(decoded.neff.to_bits(), f.neff.to_bits());
            assert_eq!(decoded.coverage.to_bits(), f.coverage.to_bits());
            assert_eq!(decoded.has_templates, f.has_templates);
        }
    }

    #[test]
    fn statistical_target_result_round_trips() {
        let engine = InferenceEngine::new(Preset::ReducedDbs, Fidelity::Statistical);
        for e in entries() {
            let f = FeatureSet::synthetic(&e);
            let r = engine.predict_target(&e, &f).unwrap();
            let decoded = decode_target_result(&encode_target_result(&r)).unwrap();
            assert_eq!(decoded.target_id, r.target_id);
            assert_eq!(decoded.top_index, r.top_index);
            assert_eq!(decoded.predictions.len(), r.predictions.len());
            for (d, p) in decoded.predictions.iter().zip(&r.predictions) {
                assert_eq!(d.model, p.model);
                assert_eq!(d.recycles, p.recycles);
                assert_eq!(d.ptms.to_bits(), p.ptms.to_bits());
                assert_eq!(d.plddt_mean.to_bits(), p.plddt_mean.to_bits());
                assert_eq!(d.gpu_seconds.to_bits(), p.gpu_seconds.to_bits());
                assert_eq!(d.peak_mem_bytes, p.peak_mem_bytes);
                assert!(d.structure.is_none());
            }
        }
    }

    #[test]
    fn geometric_prediction_with_structure_round_trips() {
        let engine = InferenceEngine::new(Preset::ReducedDbs, Fidelity::Geometric);
        let e = &entries()[0];
        let f = FeatureSet::synthetic(e);
        let r = engine.predict_target(e, &f).unwrap();
        let decoded = decode_target_result(&encode_target_result(&r)).unwrap();
        for (d, p) in decoded.predictions.iter().zip(&r.predictions) {
            let ds = d.structure.as_ref().unwrap();
            let ps = p.structure.as_ref().unwrap();
            assert_eq!(ds, ps, "structures must round-trip bit-identically");
        }
    }

    #[test]
    fn relax_outcome_round_trips() {
        let engine = InferenceEngine::new(Preset::ReducedDbs, Fidelity::Geometric);
        let e = &entries()[0];
        let f = FeatureSet::synthetic(e);
        let s = engine
            .predict(e, &f, summitfold_inference::ModelId(1))
            .unwrap()
            .structure
            .unwrap();
        let o = relax(&s, Protocol::OptimizedSinglePass);
        let decoded = decode_relax_outcome(&encode_relax_outcome(&o)).unwrap();
        assert_eq!(decoded.structure, o.structure);
        assert_eq!(decoded.rounds, o.rounds);
        assert_eq!(decoded.total_iterations, o.total_iterations);
        assert_eq!(decoded.final_violations, o.final_violations);
        assert_eq!(decoded.energy_final.to_bits(), o.energy_final.to_bits());
    }

    #[test]
    fn decoders_are_total_on_garbage() {
        assert!(decode_feature_set(&["nope".to_owned()]).is_none());
        assert!(decode_feature_set(&[]).is_none());
        assert!(decode_target_result(&["{}".to_owned()]).is_none());
        assert!(decode_relax_outcome(&["{}".to_owned()]).is_none());
        let mut lines = encode_feature_set(&FeatureSet {
            target_id: "t".to_owned(),
            length: 10,
            richness: 0.5,
            neff: 8.0,
            coverage: 0.9,
            has_templates: false,
        });
        lines.push("extra".to_owned());
        assert!(decode_feature_set(&lines).is_none());
    }

    #[test]
    fn integer_fields_out_of_range_decode_to_none_not_a_cast() {
        let line = |length: &str| {
            vec![format!(
                "{{\"target_id\":\"t\",\"length\":{length},\"richness\":0.5,\"neff\":8,\
                 \"coverage\":0.9,\"has_templates\":0}}"
            )]
        };
        assert_eq!(decode_feature_set(&line("10")).map(|f| f.length), Some(10));
        // A cast would read 1e30 as usize::MAX, -1 as 0 and 2.5 as 2.
        for bad in ["1e30", "-1", "2.5", "null"] {
            assert!(decode_feature_set(&line(bad)).is_none(), "{bad}");
        }
    }

    #[test]
    fn fingerprints_react_to_every_component() {
        let e = &entries()[0];
        let f = FeatureSet::synthetic(e);
        let mut f2 = f.clone();
        f2.richness += 1e-9;
        assert_ne!(feature_fingerprint(&f), feature_fingerprint(&f2));

        let engine = InferenceEngine::new(Preset::ReducedDbs, Fidelity::Geometric);
        let s = engine
            .predict(e, &f, summitfold_inference::ModelId(1))
            .unwrap()
            .structure
            .unwrap();
        let mut s2 = s.clone();
        s2.ca[0].x += 1e-9;
        assert_ne!(structure_fingerprint(&s), structure_fingerprint(&s2));
        let mut s3 = s.clone();
        s3.id = "renamed".to_owned();
        assert_eq!(
            structure_fingerprint(&s),
            structure_fingerprint(&s3),
            "id is not part of the geometry fingerprint"
        );
    }
}
