//! The metric and workload names `BENCHMARK.json` promises, read from the
//! file itself at compile time so the program and the contract cannot
//! drift apart unnoticed.

const SPEC: &str = include_str!("../../BENCHMARK.json");

/// Every `"key": "value"` string in `text`, in order. `BENCHMARK.json` is
/// flat enough that this is all the parsing the benchmark needs.
fn string_fields<'a>(text: &'a str, key: &str) -> Vec<&'a str> {
    let needle = format!("\"{key}\": \"");
    text.match_indices(&needle)
        .filter_map(|(at, _)| {
            let value = &text[at + needle.len()..];
            value.find('"').map(|end| &value[..end])
        })
        .collect()
}

/// The text of one top-level array of the spec.
fn section(name: &str) -> &'static str {
    let (_, rest) = SPEC
        .split_once(&format!("\"{name}\": ["))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {name} array"));
    rest.split_once("\n  ]").map_or(rest, |(body, _)| body)
}

/// `(name, unit)` of every metric in `end_to_end` or `per_layer`.
pub fn metrics(section_name: &str) -> Vec<(&'static str, &'static str)> {
    let body = section(section_name);
    string_fields(body, "name")
        .into_iter()
        .zip(string_fields(body, "unit"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn string_fields_finds_every_value_in_order() {
        let text = r#"[{"name": "a", "unit": "ms"}, {"name": "b.c", "unit": "%"}]"#;
        assert_eq!(string_fields(text, "name"), ["a", "b.c"]);
        assert_eq!(string_fields(text, "unit"), ["ms", "%"]);
        assert!(string_fields(text, "why").is_empty());
    }

    #[test]
    fn the_spec_lists_the_four_workloads_with_their_reasons() {
        let body = section("workloads");
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        let whys: Vec<&str> = WORKLOADS.iter().map(|w| w.why).collect();
        assert_eq!(string_fields(body, "name"), names);
        assert_eq!(string_fields(body, "why"), whys);
    }

    #[test]
    fn the_spec_names_fourteen_end_to_end_and_forty_six_layer_metrics() {
        let e2e = metrics("end_to_end");
        assert_eq!(e2e.len(), 14);
        assert_eq!(e2e[0], ("setup_s", "s"));
        let layers = metrics("per_layer");
        assert_eq!(layers.len(), 46);
        assert!(layers.contains(&("core.view.quote_ns_p99.9", "ns")));
        for (name, unit) in e2e.iter().chain(&layers) {
            assert!(crate::json::valid_name(name), "{name}");
            assert!(crate::json::valid_unit(unit), "{unit}");
        }
    }
}
