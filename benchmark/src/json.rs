//! Rendering for `puffer_probe::json::Json`, which the probe crate parses
//! but never prints.

use puffer_probe::json::{escape_into, number_into};
pub use puffer_probe::json::{parse, Json};

pub fn num(v: f64) -> Json {
    Json::Num(v)
}

pub fn text(s: impl Into<String>) -> Json {
    Json::Str(s.into())
}

pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
    Json::Arr(items.into_iter().collect())
}

/// Renders on one line. Non-finite numbers become `null`.
pub fn render(v: &Json) -> String {
    let mut out = String::new();
    render_into(v, &mut out);
    out
}

fn render_into(v: &Json, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => number_into(out, *n),
        Json::Str(s) => escape_into(out, s),
        Json::Arr(items) => {
            out.push('[');
            for (i, it) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                render_into(it, out);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                escape_into(out, k);
                out.push_str(": ");
                render_into(val, out);
            }
            out.push('}');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_round_trips_through_the_parser() {
        let doc = obj([
            ("name", text("a \"quoted\"\nline")),
            ("n", num(0.1 + 0.2)),
            ("list", arr([num(1.0), Json::Null, Json::Bool(true)])),
            ("nested", obj([("k", num(-2.5e-7))])),
        ]);
        let back = parse(&render(&doc)).unwrap();
        assert_eq!(back, doc);
        // All digits survive: 0.1 + 0.2 is not 0.3.
        assert_eq!(back.get("n").and_then(Json::as_num), Some(0.30000000000000004));
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        assert_eq!(render(&arr([num(f64::NAN), num(f64::INFINITY)])), "[null, null]");
    }
}
