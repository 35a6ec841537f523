//! `BENCHMARK.json` at the repository root lists exactly the metrics the
//! binary prints, in the same order, with the same units and directions.

use hardsnap_perfbench::{Better, Metric, END_TO_END, PER_LAYER};
use hardsnap_util::json::Value;

fn listed(manifest: &Value, key: &str) -> Vec<(String, String, String)> {
    manifest
        .get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no '{key}' list"))
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap().to_string();
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

fn expected(table: &[Metric]) -> Vec<(String, String, String)> {
    table
        .iter()
        .map(|&(n, u, b)| {
            let b = if b == Better::Higher {
                "higher"
            } else {
                "lower"
            };
            (n.to_string(), u.to_string(), b.to_string())
        })
        .collect()
}

#[test]
fn manifest_matches_the_printed_metrics() {
    let src = include_str!("../../BENCHMARK.json");
    let manifest = hardsnap_util::json::parse(src).expect("BENCHMARK.json parses");
    assert_eq!(listed(&manifest, "end_to_end"), expected(&END_TO_END));
    assert_eq!(listed(&manifest, "per_layer"), expected(&PER_LAYER));
}
