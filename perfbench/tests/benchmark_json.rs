//! `BENCHMARK.json` at the repository root names exactly the workloads and
//! metrics this benchmark reports, within the limits its format sets.

use noc_experiments::jsonio::{parse_value, JsonValue};
use perfbench::report::{valid_name, valid_unit};
use perfbench::run::{per_layer_names, END_TO_END, WORKLOADS};

fn benchmark() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024);
    parse_value(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(b: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    b.get(key)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("{key} is a list"))
}

fn names(b: &JsonValue, key: &str) -> Vec<String> {
    list(b, key)
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(JsonValue::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn names_match_what_the_command_reports() {
    let b = benchmark();
    assert_eq!(names(&b, "workloads"), WORKLOADS);
    assert_eq!(names(&b, "end_to_end"), END_TO_END);
    assert_eq!(names(&b, "per_layer"), per_layer_names());
}

#[test]
fn entries_keep_to_the_format() {
    let b = benchmark();
    let mut seen = std::collections::BTreeSet::new();
    for key in ["workloads", "end_to_end", "per_layer"] {
        for entry in list(&b, key) {
            let name = entry.get("name").and_then(JsonValue::as_str).expect("name");
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name.to_string()), "{name} used twice");
            if key == "workloads" {
                let why = entry.get("why").and_then(JsonValue::as_str).expect("why");
                assert!(
                    !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
                    "{name}"
                );
                continue;
            }
            let unit = entry.get("unit").and_then(JsonValue::as_str).expect("unit");
            assert!(valid_unit(unit), "{name}: {unit}");
            let better = entry.get("better").and_then(JsonValue::as_str);
            assert!(matches!(better, Some("higher" | "lower")), "{name}");
            if key == "end_to_end" {
                let bound = entry
                    .get("bound")
                    .and_then(JsonValue::as_f64)
                    .expect("bound");
                assert!(bound > 0.0 && bound <= 0.25, "{name}: {bound}");
            }
        }
    }
    let seconds = b
        .get("run_seconds")
        .and_then(JsonValue::as_u64)
        .expect("run_seconds");
    assert!((1..=60).contains(&seconds));
}
