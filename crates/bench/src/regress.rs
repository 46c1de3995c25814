//! The metrics-driven regression gate behind the `check_regression` bench
//! binary.
//!
//! The schema gate (`check_schema`) proves a fresh `BENCH_*.json` has the
//! documented *shape*; nothing proved its *numbers* hadn't quietly doubled.
//! This module compares a freshly produced bench document against a
//! committed baseline of the same figure and reports:
//!
//! * **band violations** — a gated metric moved past its tolerance band
//!   (relative tolerance plus an absolute floor that absorbs timer noise on
//!   the sub-millisecond smoke runs). Bands only apply when the documents'
//!   *context fields* match (`machine_cores`, `backend`, `threads`, …): a
//!   4-core CI runner is not comparable to the 32-core box that produced the
//!   committed baseline, and silently gating across that gap would make the
//!   gate either useless (huge tolerances) or flaky (tight ones). When the
//!   context differs the bands are skipped with a printed notice, and the
//!   `--self-test` mode of the binary (which degrades a copy of the baseline
//!   against itself, so the context always matches) proves on every runner
//!   that the gate can still fire.
//! * **sanity violations** — context-independent invariants of the current
//!   document alone: every gated metric finite and inside an a-priori sane
//!   range (e.g. `parallel_efficiency` ∈ (0, 1.25]), and the phases
//!   document's observability-overhead ratio ≤ 1.25 when it was measured.
//!   These fire on any runner.
//! * **coverage violations** (opt-in) — a baseline row key missing from the
//!   current document. CI's smoke legs request this so a bench binary that
//!   silently drops a dataset fails; the weekly scaled runs do not (their
//!   row keys legitimately differ from the committed smoke baselines).

use crate::jsonv::Value;
use crate::schema;

/// Whether a larger value of the metric is a regression or an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Time-like: regression when the current value exceeds the band above
    /// the baseline.
    LowerIsBetter,
    /// Speedup-like: regression when the current value falls below the band
    /// under the baseline.
    HigherIsBetter,
}

/// Tolerance band and sanity range for one numeric field of a row.
#[derive(Debug, Clone, Copy)]
pub struct MetricGate {
    /// Field name in the row (or nested series item).
    pub name: &'static str,
    /// Which way regressions point.
    pub dir: Direction,
    /// Whether the baseline-relative band applies (sanity always does).
    pub banded: bool,
    /// Relative tolerance: a `LowerIsBetter` metric may grow by this
    /// fraction of the baseline before violating.
    pub rel_tol: f64,
    /// Absolute slack added on top of the relative band, in the metric's
    /// unit. Absorbs timer noise on metrics whose baseline is near zero
    /// (sub-millisecond smoke phases).
    pub abs_floor: f64,
    /// Inclusive sane range for the current value, context-independent.
    pub sanity: (f64, f64),
}

impl MetricGate {
    /// A time-like banded metric with the default `[0, ∞)` sanity range.
    pub const fn lower(name: &'static str, rel_tol: f64, abs_floor: f64) -> Self {
        MetricGate {
            name,
            dir: Direction::LowerIsBetter,
            banded: true,
            rel_tol,
            abs_floor,
            sanity: (0.0, f64::INFINITY),
        }
    }

    /// A speedup-like banded metric with an explicit sanity range.
    pub const fn higher(
        name: &'static str,
        rel_tol: f64,
        abs_floor: f64,
        sanity: (f64, f64),
    ) -> Self {
        MetricGate {
            name,
            dir: Direction::HigherIsBetter,
            banded: true,
            rel_tol,
            abs_floor,
            sanity,
        }
    }

    /// A metric checked only for finiteness and range, never banded
    /// (e.g. cluster counts, which drift legitimately with scale).
    pub const fn sanity_only(name: &'static str, sanity: (f64, f64)) -> Self {
        MetricGate {
            name,
            dir: Direction::LowerIsBetter,
            banded: false,
            rel_tol: 0.0,
            abs_floor: 0.0,
            sanity,
        }
    }

    /// Overrides the sanity range of a banded constructor.
    pub const fn with_sanity(mut self, sanity: (f64, f64)) -> Self {
        self.sanity = sanity;
        self
    }
}

/// The gate specification for one `figure` tag. Row/nested array names come
/// from the figure's [`schema::DocSchema`]; this adds which top-level fields
/// form the comparability context, which row fields identify a row across
/// documents, and which metrics are gated.
pub struct FigureGate {
    /// Value of the document's `figure` tag.
    pub figure: &'static str,
    /// Top-level fields that must be equal between baseline and current for
    /// the tolerance bands to apply.
    pub context: &'static [&'static str],
    /// Row fields that identify a row (compared for exact equality).
    pub keys: &'static [&'static str],
    /// Gated metrics of each row.
    pub metrics: &'static [MetricGate],
    /// For the sweep documents: key fields and gated metrics of the nested
    /// series items.
    pub nested: Option<(&'static [&'static str], &'static [MetricGate])>,
}

/// The gate specifications for every committed bench document.
pub const GATES: &[FigureGate] = &[
    FigureGate {
        figure: "hotpath",
        context: &["smoke", "machine_cores"],
        keys: &["dataset", "n"],
        metrics: &[
            MetricGate::lower("partition_s", 0.50, 0.005),
            MetricGate::lower("mark_core_s", 0.50, 0.005),
            MetricGate::lower("cell_graph_s", 0.50, 0.005),
            MetricGate::lower("dbscan_s", 0.50, 0.010),
        ],
        nested: None,
    },
    FigureGate {
        figure: "kernels",
        context: &["smoke", "backend", "machine_cores"],
        keys: &["d", "primitive"],
        metrics: &[
            MetricGate::lower("scalar_ns_per_dist", 0.60, 0.50),
            MetricGate::lower("simd_ns_per_dist", 0.60, 0.50),
            MetricGate::higher("speedup", 0.35, 0.15, (0.05, 1_000.0)),
        ],
        nested: None,
    },
    FigureGate {
        figure: "phases",
        context: &["smoke", "threads", "machine_cores"],
        keys: &["dataset", "n", "phase"],
        metrics: &[
            MetricGate::lower("wall_s", 0.60, 0.005),
            MetricGate::lower("cpu_s", 0.60, 0.010),
            MetricGate::sanity_only("pool_busy_s", (0.0, f64::INFINITY)),
            MetricGate::higher("parallel_efficiency", 0.40, 0.05, (1e-6, 1.25)),
        ],
        nested: None,
    },
    FigureGate {
        // Fsync latency on shared CI disks is far noisier than CPU-bound
        // timings, so the bands here are deliberately wide: the gate's job
        // is to catch pathological regressions (an accidental extra fsync
        // per batch, a quadratic encode), not single-digit percentages.
        figure: "wal",
        context: &["smoke", "machine_cores", "batches"],
        keys: &["dataset", "n", "policy"],
        metrics: &[
            MetricGate::lower("apply_s", 1.00, 0.010),
            MetricGate::lower("overhead_vs_none", 1.00, 0.50).with_sanity((0.0, 1e6)),
            MetricGate::sanity_only("wal_bytes_per_batch", (0.0, f64::INFINITY)),
            MetricGate::sanity_only("wal_append_s", (0.0, f64::INFINITY)),
            MetricGate::sanity_only("wal_fsync_s", (0.0, f64::INFINITY)),
        ],
        nested: None,
    },
    FigureGate {
        // HTTP round-trip latency through the loopback stack is noisy on
        // shared runners (scheduler jitter dominates sub-millisecond
        // reads), so the bands are wide like the WAL gate's: the target is
        // "readers started blocking on the writer" (a publish-latency-sized
        // jump), not single-digit percentages.
        figure: "serve",
        context: &["smoke", "machine_cores", "readers"],
        keys: &["dataset", "n", "mode", "read"],
        metrics: &[
            MetricGate::higher("qps", 0.60, 5.0, (0.1, 1e9)),
            MetricGate::lower("p50_ms", 1.00, 0.50),
            MetricGate::lower("p99_ms", 1.50, 2.00),
            MetricGate::sanity_only("requests", (1.0, f64::INFINITY)),
            MetricGate::sanity_only("updates_applied", (0.0, f64::INFINITY)),
            MetricGate::sanity_only("generations", (0.0, f64::INFINITY)),
        ],
        nested: None,
    },
    FigureGate {
        figure: "fig6_eps_sweep",
        context: &["scale"],
        keys: &["name", "n", "min_pts"],
        metrics: &[],
        nested: Some((
            &["eps"],
            &[
                MetricGate::lower("engine_s", 0.60, 0.010),
                MetricGate::lower("oneshot_s", 0.60, 0.010),
                MetricGate::sanity_only("clusters", (0.0, f64::INFINITY)),
                MetricGate::sanity_only("noise", (0.0, f64::INFINITY)),
            ],
        )),
    },
    FigureGate {
        figure: "stream_updates",
        context: &["scale", "batches_per_fraction"],
        keys: &["name", "n"],
        metrics: &[],
        nested: Some((
            &["fraction", "batch"],
            &[
                MetricGate::lower("apply_s", 0.60, 0.005),
                MetricGate::lower("full_recluster_s", 0.60, 0.010),
                MetricGate::higher("speedup", 0.50, 0.25, (0.01, 1e6)),
                MetricGate::sanity_only("cells_touched", (0.0, f64::INFINITY)),
                MetricGate::sanity_only("points_rescanned", (0.0, f64::INFINITY)),
            ],
        )),
    },
];

/// Looks up the gate specification for a `figure` tag.
pub fn gate_for(figure: &str) -> Option<&'static FigureGate> {
    GATES.iter().find(|g| g.figure == figure)
}

/// Knobs of one [`compare`] run.
#[derive(Debug, Clone, Copy)]
pub struct CompareOptions {
    /// Multiplies every band's `rel_tol` and `abs_floor` (CI can widen the
    /// bands on noisy shared runners without editing the spec table).
    pub tol_scale: f64,
    /// Treat a baseline row key missing from the current document as a
    /// violation instead of a note.
    pub require_coverage: bool,
}

impl Default for CompareOptions {
    fn default() -> Self {
        CompareOptions {
            tol_scale: 1.0,
            require_coverage: false,
        }
    }
}

/// Outcome of one baseline/current comparison.
#[derive(Debug, Default)]
pub struct GateReport {
    /// The documents' `figure` tag.
    pub figure: String,
    /// Gate failures — non-empty means the run regressed (or is insane).
    pub violations: Vec<String>,
    /// Non-fatal observations: skipped bands (context mismatch), rows
    /// without coverage enforcement, ungated figures.
    pub notes: Vec<String>,
    /// Number of metric bands actually evaluated.
    pub bands_checked: usize,
    /// Number of sanity checks actually evaluated.
    pub sanity_checked: usize,
}

impl GateReport {
    /// `true` when no violation fired.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

fn num(row: &Value, name: &str) -> Option<f64> {
    row.get(name).and_then(Value::as_f64)
}

fn render_value(v: Option<&Value>) -> String {
    match v {
        None => "<missing>".to_string(),
        Some(Value::String(s)) => s.clone(),
        Some(Value::Number(x)) => format!("{x}"),
        Some(Value::Bool(b)) => format!("{b}"),
        Some(other) => other.type_name().to_string(),
    }
}

fn row_key(row: &Value, keys: &[&str]) -> String {
    keys.iter()
        .map(|k| format!("{k}={}", render_value(row.get(k))))
        .collect::<Vec<_>>()
        .join(" ")
}

fn keys_match(a: &Value, b: &Value, keys: &[&str]) -> bool {
    keys.iter().all(|k| a.get(k) == b.get(k))
}

fn sanity_check(
    report: &mut GateReport,
    figure: &str,
    ctx: &str,
    row: &Value,
    gates: &[MetricGate],
) {
    for gate in gates {
        report.sanity_checked += 1;
        let Some(v) = num(row, gate.name) else {
            // `null` where a number belongs (a non-finite value at emit
            // time) is itself insane; a missing field is the schema gate's
            // finding, repeated here only because we may run without it.
            report.violations.push(format!(
                "{figure} {ctx}: `{}` is not a finite number",
                gate.name
            ));
            continue;
        };
        if !v.is_finite() {
            report.violations.push(format!(
                "{figure} {ctx}: `{}` is not finite ({v})",
                gate.name
            ));
        } else if v < gate.sanity.0 || v > gate.sanity.1 {
            report.violations.push(format!(
                "{figure} {ctx}: `{}` = {v} outside sane range [{}, {}]",
                gate.name, gate.sanity.0, gate.sanity.1
            ));
        }
    }
}

fn band_check(
    report: &mut GateReport,
    figure: &str,
    ctx: &str,
    base_row: &Value,
    cur_row: &Value,
    gates: &[MetricGate],
    tol_scale: f64,
) {
    for gate in gates.iter().filter(|g| g.banded) {
        let (Some(base), Some(cur)) = (num(base_row, gate.name), num(cur_row, gate.name)) else {
            continue; // sanity/schema already reported the malformed side
        };
        if !base.is_finite() || !cur.is_finite() {
            continue;
        }
        report.bands_checked += 1;
        let rel = gate.rel_tol * tol_scale;
        let abs = gate.abs_floor * tol_scale;
        match gate.dir {
            Direction::LowerIsBetter => {
                let allowed = base * (1.0 + rel) + abs;
                if cur > allowed {
                    report.violations.push(format!(
                        "{figure} {ctx}: `{}` regressed: baseline {base:.6}, current {cur:.6} \
                         > allowed {allowed:.6} (+{:.0}% +{abs})",
                        gate.name,
                        rel * 100.0
                    ));
                }
            }
            Direction::HigherIsBetter => {
                let allowed = base * (1.0 - rel.min(0.95)) - abs;
                if cur < allowed {
                    report.violations.push(format!(
                        "{figure} {ctx}: `{}` regressed: baseline {base:.6}, current {cur:.6} \
                         < allowed {allowed:.6} (-{:.0}% -{abs})",
                        gate.name,
                        rel.min(0.95) * 100.0
                    ));
                }
            }
        }
    }
}

/// Figure-specific sanity beyond the per-metric table: the phases document's
/// own observability-overhead probe must stay under 25% when it ran at all
/// (the acceptance bar is 2% at the 100k run; the gate range leaves room for
/// smoke-sized noise without letting a pathological slowdown through).
fn phases_overhead_sanity(report: &mut GateReport, current: &Value) {
    let Some(overhead) = current.get("overhead") else {
        return; // schema violation, already reported
    };
    if overhead.get("measured").and_then(Value::as_bool) != Some(true) {
        report
            .notes
            .push("phases: overhead probe not measured, ratio not gated".to_string());
        return;
    }
    report.sanity_checked += 1;
    match overhead.get("ratio").and_then(Value::as_f64) {
        Some(ratio) if ratio.is_finite() && ratio > 0.0 && ratio <= 1.25 => {}
        Some(ratio) => report.violations.push(format!(
            "phases overhead: counters/off ratio {ratio} outside sane range (0, 1.25]"
        )),
        None => report
            .violations
            .push("phases overhead: measured=true but ratio is not a number".to_string()),
    }
}

/// Compares a fresh bench document against a committed baseline of the same
/// figure. Both documents are schema-validated first; band, sanity and
/// coverage findings land in the returned [`GateReport`].
pub fn compare(baseline: &Value, current: &Value, opts: &CompareOptions) -> GateReport {
    let mut report = GateReport::default();
    let Some(figure) = current.get("figure").and_then(Value::as_str) else {
        report
            .violations
            .push("current document has no string `figure` tag".to_string());
        return report;
    };
    report.figure = figure.to_string();
    for e in schema::validate(current, None) {
        report.violations.push(format!("current: {e}"));
    }
    for e in schema::validate(baseline, Some(figure)) {
        report.violations.push(format!("baseline: {e}"));
    }
    if !report.passed() {
        return report; // malformed documents, row access is not meaningful
    }
    let Some(gate) = gate_for(figure) else {
        report
            .notes
            .push(format!("no regression gates defined for figure `{figure}`"));
        return report;
    };
    let doc_schema = schema::schema_for(figure).expect("gated figures have schemas");
    let cur_rows = current
        .get(doc_schema.rows)
        .and_then(Value::as_array)
        .expect("validated document has its row array");
    let base_rows = baseline
        .get(doc_schema.rows)
        .and_then(Value::as_array)
        .expect("validated document has its row array");

    // Sanity: the current document alone, on any runner.
    for row in cur_rows {
        let ctx = row_key(row, gate.keys);
        sanity_check(&mut report, figure, &ctx, row, gate.metrics);
        if let Some((nested_keys, nested_gates)) = gate.nested {
            for item in nested_rows(row, doc_schema) {
                let nctx = format!("{ctx} {}", row_key(item, nested_keys));
                sanity_check(&mut report, figure, &nctx, item, nested_gates);
            }
        }
    }
    if figure == "phases" {
        phases_overhead_sanity(&mut report, current);
    }

    // Bands: only between context-matched documents.
    let mismatched: Vec<&str> = gate
        .context
        .iter()
        .filter(|f| baseline.get(f) != current.get(f))
        .copied()
        .collect();
    let bands_on = mismatched.is_empty();
    if !bands_on {
        report.notes.push(format!(
            "tolerance bands skipped: context differs from baseline ({})",
            mismatched
                .iter()
                .map(|f| format!(
                    "{f}: {} vs {}",
                    render_value(baseline.get(f)),
                    render_value(current.get(f))
                ))
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }

    // Coverage + bands, keyed off the baseline's rows.
    for base_row in base_rows {
        let ctx = row_key(base_row, gate.keys);
        let Some(cur_row) = cur_rows.iter().find(|r| keys_match(r, base_row, gate.keys)) else {
            let msg = format!("{figure}: baseline row `{ctx}` missing from current document");
            if opts.require_coverage {
                report.violations.push(msg);
            } else {
                report.notes.push(msg);
            }
            continue;
        };
        if bands_on {
            band_check(
                &mut report,
                figure,
                &ctx,
                base_row,
                cur_row,
                gate.metrics,
                opts.tol_scale,
            );
        }
        if let Some((nested_keys, nested_gates)) = gate.nested {
            for base_item in nested_rows(base_row, doc_schema) {
                let nctx = format!("{ctx} {}", row_key(base_item, nested_keys));
                let cur_item = nested_rows(cur_row, doc_schema)
                    .iter()
                    .copied()
                    .find(|it| keys_match(it, base_item, nested_keys));
                let Some(cur_item) = cur_item else {
                    let msg =
                        format!("{figure}: baseline series point `{nctx}` missing from current");
                    if opts.require_coverage {
                        report.violations.push(msg);
                    } else {
                        report.notes.push(msg);
                    }
                    continue;
                };
                if bands_on {
                    band_check(
                        &mut report,
                        figure,
                        &nctx,
                        base_item,
                        cur_item,
                        nested_gates,
                        opts.tol_scale,
                    );
                }
            }
        }
    }
    report
}

fn nested_rows<'a>(row: &'a Value, doc_schema: &schema::DocSchema) -> Vec<&'a Value> {
    doc_schema
        .nested
        .and_then(|(name, _)| row.get(name))
        .and_then(Value::as_array)
        .map(|a| a.iter().collect())
        .unwrap_or_default()
}

/// Degrades one banded metric of a parsed baseline in place (×1000 for
/// time-like metrics, ÷1000 for speedup-like ones) and returns a
/// description of what was degraded. Used by `check_regression --self-test`
/// to prove, on every runner, that comparing the baseline against this
/// degraded copy fires the gate — the negative control for the whole
/// pipeline. Returns `None` when the document has no banded metric to
/// degrade.
pub fn degrade_for_self_test(doc: &mut Value) -> Option<String> {
    let figure = doc.get("figure").and_then(Value::as_str)?.to_string();
    let gate = gate_for(&figure)?;
    let doc_schema = schema::schema_for(&figure)?;
    let (nested_name, target_gates): (Option<&str>, &[MetricGate]) =
        if gate.metrics.iter().any(|g| g.banded) {
            (None, gate.metrics)
        } else {
            let (nested_array, _) = doc_schema.nested?;
            (Some(nested_array), gate.nested?.1)
        };
    let metric = target_gates.iter().find(|g| g.banded)?;
    let factor = match metric.dir {
        Direction::LowerIsBetter => 1000.0,
        Direction::HigherIsBetter => 1e-3,
    };

    let Value::Object(top) = doc else { return None };
    let rows = match top.get_mut(doc_schema.rows)? {
        Value::Array(rows) => rows,
        _ => return None,
    };
    let first_row = rows.first_mut()?;
    let target_row = match nested_name {
        None => first_row,
        Some(name) => {
            let Value::Object(row) = first_row else {
                return None;
            };
            match row.get_mut(name)? {
                Value::Array(items) => items.first_mut()?,
                _ => return None,
            }
        }
    };
    let Value::Object(fields) = target_row else {
        return None;
    };
    match fields.get_mut(metric.name)? {
        Value::Number(x) => {
            let old = *x;
            *x = old * factor + if factor > 1.0 { 1.0 } else { 0.0 };
            Some(format!(
                "degraded `{}` of the first {} row: {old} -> {x}",
                metric.name, figure
            ))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonv::parse;

    fn hotpath_doc(cores: u32, dbscan_s: f64, datasets: &[&str]) -> Value {
        let rows = datasets
            .iter()
            .map(|d| {
                format!(
                    "{{\"dataset\": \"{d}\", \"n\": 2000, \"eps\": 1000, \"min_pts\": 10, \
                     \"partition_s\": 0.01, \"mark_core_s\": 0.02, \"cell_graph_s\": 0.03, \
                     \"dbscan_s\": {dbscan_s}}}"
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        parse(&format!(
            "{{\"figure\": \"hotpath\", \"smoke\": true, \"machine_cores\": {cores}, \
             \"series\": [{rows}]}}"
        ))
        .unwrap()
    }

    fn fig6_doc(engine_s: f64) -> Value {
        parse(&format!(
            "{{\"figure\": \"fig6_eps_sweep\", \"scale\": 1, \"datasets\": [\
             {{\"name\": \"x\", \"n\": 2000, \"min_pts\": 10, \"cache\": {{}}, \"series\": [\
             {{\"eps\": 500, \"engine_s\": {engine_s}, \"oneshot_s\": 0.2, \"clusters\": 3, \
             \"noise\": 10}}]}}]}}"
        ))
        .unwrap()
    }

    #[test]
    fn identical_documents_pass() {
        let doc = hotpath_doc(8, 0.05, &["a", "b"]);
        let report = compare(&doc, &doc, &CompareOptions::default());
        assert!(report.passed(), "{:?}", report.violations);
        assert!(report.bands_checked > 0);
        assert!(report.sanity_checked > 0);
    }

    #[test]
    fn degraded_metric_fails_and_improvement_passes() {
        let baseline = hotpath_doc(8, 0.05, &["a"]);
        let degraded = hotpath_doc(8, 50.0, &["a"]);
        let report = compare(&baseline, &degraded, &CompareOptions::default());
        assert!(!report.passed());
        assert!(
            report.violations.iter().any(|v| v.contains("dbscan_s")),
            "{:?}",
            report.violations
        );

        let improved = hotpath_doc(8, 0.01, &["a"]);
        let report = compare(&baseline, &improved, &CompareOptions::default());
        assert!(report.passed(), "{:?}", report.violations);
    }

    #[test]
    fn context_mismatch_skips_bands_with_a_note() {
        let baseline = hotpath_doc(32, 0.05, &["a"]);
        let degraded = hotpath_doc(4, 50.0, &["a"]);
        let report = compare(&baseline, &degraded, &CompareOptions::default());
        assert!(report.passed(), "{:?}", report.violations);
        assert_eq!(report.bands_checked, 0);
        assert!(
            report
                .notes
                .iter()
                .any(|n| n.contains("machine_cores: 32 vs 4")),
            "{:?}",
            report.notes
        );
    }

    #[test]
    fn sanity_fires_regardless_of_context() {
        let baseline = hotpath_doc(32, 0.05, &["a"]);
        let insane = hotpath_doc(4, -1.0, &["a"]);
        let report = compare(&baseline, &insane, &CompareOptions::default());
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("outside sane range")),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn missing_row_is_a_note_unless_coverage_is_required() {
        let baseline = hotpath_doc(8, 0.05, &["a", "b"]);
        let current = hotpath_doc(8, 0.05, &["a"]);
        let lax = compare(&baseline, &current, &CompareOptions::default());
        assert!(lax.passed(), "{:?}", lax.violations);
        assert!(lax.notes.iter().any(|n| n.contains("dataset=b")));

        let strict = compare(
            &baseline,
            &current,
            &CompareOptions {
                require_coverage: true,
                ..CompareOptions::default()
            },
        );
        assert!(!strict.passed());
        assert!(
            strict
                .violations
                .iter()
                .any(|v| v.contains("dataset=b") && v.contains("missing")),
            "{:?}",
            strict.violations
        );
    }

    #[test]
    fn nested_series_metrics_are_gated() {
        let baseline = fig6_doc(0.1);
        let report = compare(&baseline, &fig6_doc(100.0), &CompareOptions::default());
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.contains("engine_s") && v.contains("eps=500")),
            "{:?}",
            report.violations
        );
        assert!(compare(&baseline, &fig6_doc(0.1), &CompareOptions::default()).passed());
    }

    #[test]
    fn tol_scale_widens_the_band() {
        let baseline = hotpath_doc(8, 0.10, &["a"]);
        let slower = hotpath_doc(8, 0.18, &["a"]);
        let tight = compare(&baseline, &slower, &CompareOptions::default());
        assert!(!tight.passed());
        let wide = compare(
            &baseline,
            &slower,
            &CompareOptions {
                tol_scale: 3.0,
                ..CompareOptions::default()
            },
        );
        assert!(wide.passed(), "{:?}", wide.violations);
    }

    #[test]
    fn self_test_degradation_fires_the_gate_for_every_figure() {
        for doc in [hotpath_doc(8, 0.05, &["a"]), fig6_doc(0.1)] {
            let mut degraded = doc.clone();
            let what = degrade_for_self_test(&mut degraded).expect("has a banded metric");
            let report = compare(&doc, &degraded, &CompareOptions::default());
            assert!(!report.passed(), "self-test did not fire: {what}");
        }
    }

    #[test]
    fn malformed_current_document_fails() {
        let baseline = hotpath_doc(8, 0.05, &["a"]);
        let truncated = parse(
            "{\"figure\": \"hotpath\", \"smoke\": true, \"machine_cores\": 8, \"series\": []}",
        )
        .unwrap();
        let report = compare(&baseline, &truncated, &CompareOptions::default());
        assert!(!report.passed());
        assert!(
            report.violations.iter().any(|v| v.starts_with("current:")),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn every_gate_names_schema_fields_that_exist() {
        for gate in GATES {
            let doc_schema = schema::schema_for(gate.figure).expect("gated figure has a schema");
            let has_row_field = |name: &str| doc_schema.row_fields.iter().any(|(f, _)| *f == name);
            for key in gate.keys {
                assert!(has_row_field(key), "{}: row key `{key}`", gate.figure);
            }
            for m in gate.metrics {
                assert!(
                    has_row_field(m.name),
                    "{}: metric `{}`",
                    gate.figure,
                    m.name
                );
            }
            for field in gate.context {
                assert!(
                    doc_schema.top.iter().any(|(f, _)| f == field),
                    "{}: context field `{field}`",
                    gate.figure
                );
            }
            if let Some((nested_keys, nested_gates)) = gate.nested {
                let (_, nested_fields) =
                    doc_schema.nested.expect("nested gate needs nested schema");
                let has_nested = |name: &str| nested_fields.iter().any(|(f, _)| *f == name);
                for key in nested_keys {
                    assert!(has_nested(key), "{}: nested key `{key}`", gate.figure);
                }
                for m in nested_gates {
                    assert!(
                        has_nested(m.name),
                        "{}: nested metric `{}`",
                        gate.figure,
                        m.name
                    );
                }
            }
        }
    }
}
