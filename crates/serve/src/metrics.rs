//! Process-wide counters behind `GET /metrics`: lock-free atomics bumped
//! from the worker sinks (one update per [`CHUNK`]-sized work unit, so
//! the hot trial loop never touches them) and rendered as a Prometheus
//! text exposition.
//!
//! [`CHUNK`]: dispersion_sim::runner::CHUNK

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Monotonic service counters. All loads/stores are `Relaxed`: every
/// counter is an independent statistic, not a synchronisation point.
#[derive(Debug)]
pub struct Metrics {
    start: Instant,
    /// Jobs accepted by `POST /jobs` this process lifetime.
    pub jobs_submitted: AtomicU64,
    /// Jobs restored from the data directory at startup.
    pub jobs_resumed: AtomicU64,
    /// Jobs whose last cell completed.
    pub jobs_completed: AtomicU64,
    /// Jobs cancelled via `DELETE /jobs/<id>`.
    pub jobs_cancelled: AtomicU64,
    /// Cells completed (error cells included).
    pub cells_completed: AtomicU64,
    /// Cells restored from checkpoints instead of re-run.
    pub cells_resumed: AtomicU64,
    /// Monte-Carlo trials finished (chunk-grained, from `Event::Chunk`).
    pub trials_total: AtomicU64,
    /// Walk steps performed (the engine Odometer count, chunk-grained).
    pub steps_total: AtomicU64,
    /// HTTP requests handled.
    pub http_requests: AtomicU64,
    /// Record lines written to `GET /jobs/<id>/records` streams.
    pub records_streamed: AtomicU64,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            start: Instant::now(),
            jobs_submitted: AtomicU64::new(0),
            jobs_resumed: AtomicU64::new(0),
            jobs_completed: AtomicU64::new(0),
            jobs_cancelled: AtomicU64::new(0),
            cells_completed: AtomicU64::new(0),
            cells_resumed: AtomicU64::new(0),
            trials_total: AtomicU64::new(0),
            steps_total: AtomicU64::new(0),
            http_requests: AtomicU64::new(0),
            records_streamed: AtomicU64::new(0),
        }
    }
}

impl Metrics {
    /// Fresh counters anchored at "now".
    pub fn new() -> Self {
        Self::default()
    }

    /// Convenience `fetch_add` with relaxed ordering.
    pub fn bump(counter: &AtomicU64, by: u64) {
        // ORDERING: Relaxed — independent monotone counters; scrapes need no
        // cross-counter consistency, only eventual totals
        counter.fetch_add(by, Ordering::Relaxed);
    }

    /// Seconds since the metrics (= the server) started.
    fn uptime(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Renders the text exposition. `live_jobs` / `open_cells` are gauges
    /// owned by the job store, passed in at scrape time.
    pub fn render(&self, live_jobs: u64, open_cells: u64) -> String {
        // ORDERING: Relaxed — scrape snapshot; counters are independent and
        // a reader never acts on their relative order
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let uptime = self.uptime().max(1e-9);
        let trials = get(&self.trials_total);
        let steps = get(&self.steps_total);
        let mut s = String::with_capacity(1024);
        let mut line = |name: &str, help: &str, value: String| {
            s.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}\n",
                kind = if name.ends_with("_total") {
                    "counter"
                } else {
                    "gauge"
                },
            ));
        };
        line(
            "serve_uptime_seconds",
            "Seconds since the server started.",
            format!("{uptime:.3}"),
        );
        line(
            "serve_jobs_live",
            "Jobs with unfinished cells (queued or running).",
            live_jobs.to_string(),
        );
        line(
            "serve_cells_open",
            "Cells not yet completed across live jobs.",
            open_cells.to_string(),
        );
        line(
            "serve_jobs_submitted_total",
            "Jobs accepted via POST /jobs.",
            get(&self.jobs_submitted).to_string(),
        );
        line(
            "serve_jobs_resumed_total",
            "Jobs restored from the data directory at startup.",
            get(&self.jobs_resumed).to_string(),
        );
        line(
            "serve_jobs_completed_total",
            "Jobs whose every cell completed.",
            get(&self.jobs_completed).to_string(),
        );
        line(
            "serve_jobs_cancelled_total",
            "Jobs cancelled via DELETE /jobs/<id>.",
            get(&self.jobs_cancelled).to_string(),
        );
        line(
            "serve_cells_completed_total",
            "Cells completed this process lifetime (error cells included).",
            get(&self.cells_completed).to_string(),
        );
        line(
            "serve_cells_resumed_total",
            "Cells restored from checkpoint files instead of re-run.",
            get(&self.cells_resumed).to_string(),
        );
        line(
            "serve_trials_total",
            "Monte-Carlo trials finished.",
            trials.to_string(),
        );
        line(
            "serve_steps_total",
            "Random-walk steps performed (engine odometer).",
            steps.to_string(),
        );
        line(
            "serve_trials_per_second",
            "Lifetime average trial throughput.",
            format!("{:.3}", trials as f64 / uptime),
        );
        line(
            "serve_steps_per_second",
            "Lifetime average walk-step throughput.",
            format!("{:.3}", steps as f64 / uptime),
        );
        line(
            "serve_http_requests_total",
            "HTTP requests handled.",
            get(&self.http_requests).to_string(),
        );
        line(
            "serve_records_streamed_total",
            "Record lines written to /jobs/<id>/records streams.",
            get(&self.records_streamed).to_string(),
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_exposes_all_series() {
        let m = Metrics::new();
        Metrics::bump(&m.trials_total, 100);
        Metrics::bump(&m.steps_total, 5000);
        Metrics::bump(&m.jobs_submitted, 2);
        let text = m.render(1, 3);
        for series in [
            "serve_uptime_seconds",
            "serve_jobs_live 1",
            "serve_cells_open 3",
            "serve_jobs_submitted_total 2",
            "serve_trials_total 100",
            "serve_steps_total 5000",
            "serve_trials_per_second",
            "serve_steps_per_second",
            "serve_http_requests_total 0",
            "serve_records_streamed_total 0",
        ] {
            assert!(text.contains(series), "missing {series}:\n{text}");
        }
        // counters get counter TYPE lines, gauges gauge
        assert!(text.contains("# TYPE serve_trials_total counter"));
        assert!(text.contains("# TYPE serve_jobs_live gauge"));
    }
}
