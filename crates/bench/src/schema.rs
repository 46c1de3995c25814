//! Documented schemas of the committed `BENCH_*.json` documents, and the
//! validator behind the `check_schema` CI gate.
//!
//! The bench smoke steps used to assert only "the binary ran"; a renamed or
//! dropped field would silently break every downstream consumer of the
//! committed JSONs (the README tables, the trend CSV, external plots). The
//! gate fails CI on any missing or type-changed field instead.

use crate::jsonv::Value;

/// Expected JSON type of a required field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A JSON number.
    Num,
    /// A JSON string.
    Str,
    /// A JSON boolean.
    Bool,
    /// A JSON object.
    Obj,
}

impl Kind {
    fn matches(self, v: &Value) -> bool {
        matches!(
            (self, v),
            (Kind::Num, Value::Number(_))
                | (Kind::Str, Value::String(_))
                | (Kind::Bool, Value::Bool(_))
                | (Kind::Obj, Value::Object(_))
        )
    }
}

/// Schema of one bench document: required top-level fields, the name of the
/// row array, required per-row fields, and (for the sweep documents that
/// nest a series under each dataset) the nested array's required fields.
pub struct DocSchema {
    /// Value of the document's `figure` tag.
    pub figure: &'static str,
    /// Required top-level fields (besides `figure` itself).
    pub top: &'static [(&'static str, Kind)],
    /// Name of the required non-empty top-level row array.
    pub rows: &'static str,
    /// Required fields of every row.
    pub row_fields: &'static [(&'static str, Kind)],
    /// Optional nested `(array_name, fields)` required in every row.
    pub nested: Option<(&'static str, &'static [(&'static str, Kind)])>,
}

/// The documented schemas (see README "Bench binaries and the
/// `BENCH_*.json` schema").
pub const SCHEMAS: &[DocSchema] = &[
    DocSchema {
        figure: "hotpath",
        top: &[("smoke", Kind::Bool), ("machine_cores", Kind::Num)],
        rows: "series",
        row_fields: &[
            ("dataset", Kind::Str),
            ("n", Kind::Num),
            ("eps", Kind::Num),
            ("min_pts", Kind::Num),
            ("partition_s", Kind::Num),
            ("mark_core_s", Kind::Num),
            ("cell_graph_s", Kind::Num),
            ("dbscan_s", Kind::Num),
        ],
        nested: None,
    },
    DocSchema {
        figure: "kernels",
        top: &[
            ("smoke", Kind::Bool),
            ("backend", Kind::Str),
            ("machine_cores", Kind::Num),
            ("block", Kind::Num),
        ],
        rows: "series",
        row_fields: &[
            ("d", Kind::Num),
            ("primitive", Kind::Str),
            ("n_run", Kind::Num),
            ("queries", Kind::Num),
            ("reps", Kind::Num),
            ("scalar_ns_per_dist", Kind::Num),
            ("simd_ns_per_dist", Kind::Num),
            ("speedup", Kind::Num),
        ],
        nested: None,
    },
    DocSchema {
        figure: "phases",
        top: &[
            ("smoke", Kind::Bool),
            ("machine_cores", Kind::Num),
            ("threads", Kind::Num),
            ("overhead", Kind::Obj),
        ],
        rows: "series",
        row_fields: &[
            ("dataset", Kind::Str),
            ("n", Kind::Num),
            ("phase", Kind::Str),
            ("wall_s", Kind::Num),
            ("pool_busy_s", Kind::Num),
            ("cpu_s", Kind::Num),
            ("parallel_efficiency", Kind::Num),
        ],
        nested: None,
    },
    DocSchema {
        figure: "wal",
        top: &[
            ("smoke", Kind::Bool),
            ("machine_cores", Kind::Num),
            ("batches", Kind::Num),
        ],
        rows: "series",
        row_fields: &[
            ("dataset", Kind::Str),
            ("n", Kind::Num),
            ("batch", Kind::Num),
            ("policy", Kind::Str),
            ("apply_s", Kind::Num),
            ("overhead_vs_none", Kind::Num),
            ("wal_bytes_per_batch", Kind::Num),
            ("wal_append_s", Kind::Num),
            ("wal_fsync_s", Kind::Num),
        ],
        nested: None,
    },
    DocSchema {
        figure: "serve",
        top: &[
            ("smoke", Kind::Bool),
            ("machine_cores", Kind::Num),
            ("readers", Kind::Num),
            ("duration_s", Kind::Num),
            ("churn_over_idle_p50", Kind::Num),
        ],
        rows: "series",
        row_fields: &[
            ("dataset", Kind::Str),
            ("n", Kind::Num),
            ("mode", Kind::Str),
            ("read", Kind::Str),
            ("requests", Kind::Num),
            ("qps", Kind::Num),
            ("p50_ms", Kind::Num),
            ("p99_ms", Kind::Num),
            ("updates_applied", Kind::Num),
            ("generations", Kind::Num),
        ],
        nested: None,
    },
    DocSchema {
        figure: "fig6_eps_sweep",
        top: &[("scale", Kind::Num)],
        rows: "datasets",
        row_fields: &[
            ("name", Kind::Str),
            ("n", Kind::Num),
            ("min_pts", Kind::Num),
            ("cache", Kind::Obj),
        ],
        nested: Some((
            "series",
            &[
                ("eps", Kind::Num),
                ("engine_s", Kind::Num),
                ("oneshot_s", Kind::Num),
                ("clusters", Kind::Num),
                ("noise", Kind::Num),
            ],
        )),
    },
    DocSchema {
        figure: "stream_updates",
        top: &[("scale", Kind::Num), ("batches_per_fraction", Kind::Num)],
        rows: "datasets",
        row_fields: &[
            ("name", Kind::Str),
            ("n", Kind::Num),
            ("eps", Kind::Num),
            ("min_pts", Kind::Num),
        ],
        nested: Some((
            "series",
            &[
                ("fraction", Kind::Num),
                ("batch", Kind::Num),
                ("apply_s", Kind::Num),
                ("full_recluster_s", Kind::Num),
                ("speedup", Kind::Num),
                ("cells_touched", Kind::Num),
                ("points_rescanned", Kind::Num),
                ("components_reclustered", Kind::Num),
                ("compactions", Kind::Num),
            ],
        )),
    },
];

/// Looks up the schema for a `figure` tag.
pub fn schema_for(figure: &str) -> Option<&'static DocSchema> {
    SCHEMAS.iter().find(|s| s.figure == figure)
}

fn check_fields(errors: &mut Vec<String>, context: &str, obj: &Value, fields: &[(&str, Kind)]) {
    for &(name, kind) in fields {
        match obj.get(name) {
            None => errors.push(format!("{context}: missing field `{name}`")),
            Some(v) if !kind.matches(v) => errors.push(format!(
                "{context}: field `{name}` should be {kind:?}, got {}",
                v.type_name()
            )),
            Some(_) => {}
        }
    }
}

/// Validates `doc` against the documented schema for its `figure` tag
/// (`expect_figure`, when given, must also match). Returns every violation
/// found — an empty vector means the document conforms.
pub fn validate(doc: &Value, expect_figure: Option<&str>) -> Vec<String> {
    let mut errors = Vec::new();
    let Some(figure) = doc.get("figure").and_then(Value::as_str) else {
        return vec!["document has no string `figure` tag".to_string()];
    };
    if let Some(want) = expect_figure {
        if figure != want {
            return vec![format!("figure tag is `{figure}`, expected `{want}`")];
        }
    }
    let Some(schema) = schema_for(figure) else {
        return vec![format!("no documented schema for figure `{figure}`")];
    };
    check_fields(&mut errors, "top level", doc, schema.top);
    let rows = match doc.get(schema.rows) {
        None => {
            errors.push(format!("top level: missing row array `{}`", schema.rows));
            return errors;
        }
        Some(v) => match v.as_array() {
            None => {
                errors.push(format!(
                    "top level: `{}` should be an array, got {}",
                    schema.rows,
                    v.type_name()
                ));
                return errors;
            }
            Some(rows) => rows,
        },
    };
    if rows.is_empty() {
        errors.push(format!("`{}` is empty", schema.rows));
    }
    for (i, row) in rows.iter().enumerate() {
        let context = format!("{}[{i}]", schema.rows);
        check_fields(&mut errors, &context, row, schema.row_fields);
        if let Some((nested_name, nested_fields)) = schema.nested {
            match row.get(nested_name).and_then(Value::as_array) {
                None => errors.push(format!("{context}: missing nested array `{nested_name}`")),
                Some(nested) => {
                    if nested.is_empty() {
                        errors.push(format!("{context}.{nested_name} is empty"));
                    }
                    for (j, item) in nested.iter().enumerate() {
                        check_fields(
                            &mut errors,
                            &format!("{context}.{nested_name}[{j}]"),
                            item,
                            nested_fields,
                        );
                    }
                }
            }
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonv::parse;

    fn hotpath_doc(field: &str) -> String {
        format!(
            "{{\"figure\": \"hotpath\", \"smoke\": true, \"machine_cores\": 1, \"series\": [\
             {{\"dataset\": \"x\", \"n\": 10, \"eps\": 1, \"min_pts\": 5, \"partition_s\": 0.1, \
             \"mark_core_s\": 0.1, \"cell_graph_s\": 0.1, \"{field}\": 0.1}}]}}"
        )
    }

    #[test]
    fn conforming_document_passes() {
        let doc = parse(&hotpath_doc("dbscan_s")).unwrap();
        assert_eq!(validate(&doc, Some("hotpath")), Vec::<String>::new());
    }

    #[test]
    fn renamed_field_fails() {
        let doc = parse(&hotpath_doc("dbscan_seconds")).unwrap();
        let errors = validate(&doc, Some("hotpath"));
        assert!(
            errors
                .iter()
                .any(|e| e.contains("missing field `dbscan_s`")),
            "{errors:?}"
        );
    }

    #[test]
    fn wrong_type_and_wrong_figure_fail() {
        let doc = parse(
            "{\"figure\": \"hotpath\", \"smoke\": \"yes\", \"machine_cores\": 1, \"series\": []}",
        )
        .unwrap();
        let errors = validate(&doc, None);
        assert!(errors.iter().any(|e| e.contains("`smoke` should be Bool")));
        assert!(errors.iter().any(|e| e.contains("`series` is empty")));
        assert_eq!(
            validate(&doc, Some("kernels")),
            vec!["figure tag is `hotpath`, expected `kernels`".to_string()]
        );
    }

    #[test]
    fn nested_series_is_checked() {
        let doc = parse(
            "{\"figure\": \"fig6_eps_sweep\", \"scale\": 1, \"datasets\": [\
             {\"name\": \"x\", \"n\": 10, \"min_pts\": 5, \"cache\": {}, \"series\": [\
             {\"eps\": 1, \"engine_s\": 0.1, \"oneshot_s\": 0.2, \"clusters\": 3}]}]}",
        )
        .unwrap();
        let errors = validate(&doc, None);
        assert!(
            errors.iter().any(|e| e.contains("missing field `noise`")),
            "{errors:?}"
        );
    }

    #[test]
    fn every_documented_schema_is_reachable() {
        for s in SCHEMAS {
            assert!(schema_for(s.figure).is_some());
        }
        assert!(schema_for("nope").is_none());
    }
}
