//! Metric names, units and the result line.

/// End-to-end metrics: printed by every untraced run, on every workload.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_share", "share"),
    ("tts_s", "s"),
    ("tts_seq_s", "s"),
    ("job_p50_ms", "ms"),
    ("job_p99_ms", "ms"),
    ("slo_met_share", "share"),
    ("jobs_per_s", "1/s"),
];

/// Per-layer metrics: printed by every traced run, on every workload.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("sparse.row_dot_ns", "ns"),
    ("sparse.matvec_ms", "ms"),
    ("sparse.spmm_ms", "ms"),
    ("sparse.bytes_per_update", "B-computed"),
    ("rng.draw_ns", "ns"),
    ("core.atomic_add_ns", "ns"),
    ("core.update_ns", "ns"),
    ("core.update_ns_t1", "ns"),
    ("core.seq_update_ns", "ns"),
    ("core.sweeps_to_tol", "count"),
    ("core.sweeps_to_tol_seq", "count"),
    ("core.max_delay", "count"),
    ("core.observe_share", "share"),
    ("core.speedup_vs_seq", "x"),
    ("parallel.handshake_us", "us"),
    ("krylov.outer_iters", "count"),
    ("krylov.precond_apply_ms", "ms"),
    ("session.build_ms", "ms"),
    ("session.first_solve_extra_ms", "ms"),
    ("policy.decide_ms", "ms"),
    ("serve.submit_ms_p50", "ms"),
    ("serve.submit_ms_p99", "ms"),
    ("serve.fingerprint_ns_per_nnz", "ns"),
    ("serve.symmetry_ns_per_nnz", "ns"),
    ("serve.queue_ms_p50", "ms"),
    ("serve.queue_ms_p99", "ms"),
    ("serve.service_ms_p50", "ms"),
    ("serve.service_ms_p99", "ms"),
    ("serve.batch_size_mean", "count"),
    ("serve.coalesced_share", "share"),
    ("serve.dedup_hit_share", "share"),
    ("serve.warm_start_share", "share"),
    ("serve.policy_probes", "count"),
    ("serve.policy_hits", "count"),
    ("serve.retried", "count"),
    ("serve.refused", "count"),
    ("serve.target_misses", "count"),
    ("loadgen.late_ms_p99", "ms"),
    ("trace.overhead_share", "share"),
];

/// Named values, in the order they were set.
#[derive(Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Print one `name value unit` line per expected metric and return the
    /// JSON `metrics` object, or the names that are missing or not finite.
    pub fn render(&self, expected: &[(&str, &str)]) -> Result<String, Vec<String>> {
        let mut bad = Vec::new();
        let mut parts = Vec::new();
        for &(name, unit) in expected {
            match self.get(name) {
                Some(v) if v.is_finite() => {
                    println!("{name:<32} {v:>16.6} {unit}");
                    parts.push(format!(
                        "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
                    ));
                }
                other => {
                    println!("{name:<32} {:>16} {unit}", format!("{other:?}"));
                    bad.push(name.to_string());
                }
            }
        }
        if bad.is_empty() {
            Ok(format!("{{{}}}", parts.join(", ")))
        } else {
            Err(bad)
        }
    }
}

/// Operations a run attempted and how many failed its correctness check.
#[derive(Default, Clone, Copy)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
}

impl Tally {
    pub fn add(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn ok(&self) -> usize {
        self.attempted - self.failed
    }
}
