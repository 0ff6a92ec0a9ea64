//! Dependency-free Prometheus-text-format exposition of the live
//! `crowdtune-obs` metrics.
//!
//! Two modes:
//!
//! - [`ExpositionServer`] — a tiny blocking HTTP/1.1 listener on its own
//!   thread. Every request (any path) gets a fresh snapshot of all
//!   registered counters and histograms in Prometheus text format
//!   (`text/plain; version=0.0.4`). The server only *reads* sharded
//!   atomics, so scraping mid-tune cannot perturb tuner output.
//! - [`write_oneshot`] — render one snapshot to a file, for CI scrapes
//!   and offline inspection without opening a socket.
//!
//! Counters become `crowdtune_<name>_total` counter families; histograms
//! become `crowdtune_<name>_ns` summary families (quantiles from the
//! log₂ buckets, interpolated) plus a `_ns_max` gauge. Metric names are
//! sanitized to `[a-zA-Z0-9_]`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crowdtune_obs::MetricsSnapshot;

/// Maps a dotted metric name (`gp.fit_restarts`) to a Prometheus-legal
/// base name (`crowdtune_gp_fit_restarts`).
pub fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 10);
    out.push_str("crowdtune_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Renders a metrics snapshot in Prometheus text exposition format
/// (version 0.0.4). Families are emitted in deterministic (sorted) name
/// order: counters first, then histogram summaries.
pub fn render_prometheus(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snap.counters {
        let base = format!("{}_total", sanitize(name));
        out.push_str(&format!("# TYPE {base} counter\n{base} {value}\n"));
    }
    for (name, h) in &snap.histograms {
        let base = format!("{}_ns", sanitize(name));
        out.push_str(&format!("# TYPE {base} summary\n"));
        out.push_str(&format!("{base}{{quantile=\"0.5\"}} {}\n", h.p50));
        out.push_str(&format!("{base}{{quantile=\"0.9\"}} {}\n", h.p90));
        out.push_str(&format!("{base}{{quantile=\"0.99\"}} {}\n", h.p99));
        out.push_str(&format!("{base}_sum {}\n", h.sum));
        out.push_str(&format!("{base}_count {}\n", h.count));
        out.push_str(&format!("# TYPE {base}_max gauge\n{base}_max {}\n", h.max));
    }
    out
}

/// Renders an SLO evaluation in Prometheus text exposition format: one
/// `crowdtune_slo_burn` gauge sample per objective window (labelled with
/// the objective and window length) and one `crowdtune_slo_breached`
/// gauge per objective (1 = breached). Deterministic sample order.
pub fn render_slo_prometheus(report: &crowdtune_obs::SloReport) -> String {
    let mut out = String::new();
    out.push_str("# TYPE crowdtune_slo_burn gauge\n");
    for o in &report.outcomes {
        for w in &o.windows {
            out.push_str(&format!(
                "crowdtune_slo_burn{{slo=\"{}\",window_us=\"{}\"}} {}\n",
                o.name, w.window_us, w.burn
            ));
        }
    }
    out.push_str("# TYPE crowdtune_slo_breached gauge\n");
    for o in &report.outcomes {
        out.push_str(&format!(
            "crowdtune_slo_breached{{slo=\"{}\"}} {}\n",
            o.name,
            u8::from(o.breached)
        ));
    }
    out
}

/// Renders a fleet [`QualityRollup`](crate::quality::QualityRollup) in
/// Prometheus text format: per-contributor gauges labelled by scenario
/// and contributor (`crowdtune_quality_contributor_scored`,
/// `..._flagged`, `..._quarantined`) and per-scenario calibration
/// gauges (`crowdtune_calibration_coverage90`,
/// `crowdtune_calibration_nll_per_point`). Deterministic sample order
/// (BTreeMap iteration).
pub fn render_quality_prometheus(rollup: &crate::quality::QualityRollup) -> String {
    type Pick = fn(&crate::quality::ContributorAggregate) -> u64;
    let families: [(&str, Pick); 3] = [
        ("crowdtune_quality_contributor_scored", |a| a.scored),
        ("crowdtune_quality_contributor_flagged", |a| a.flagged),
        ("crowdtune_quality_contributor_quarantined", |a| {
            a.quarantined
        }),
    ];
    let mut out = String::new();
    for (family, pick) in families {
        out.push_str(&format!("# TYPE {family} gauge\n"));
        for (scen, sq) in &rollup.scenarios {
            for (name, agg) in &sq.contributors {
                out.push_str(&format!(
                    "{family}{{scenario=\"{scen}\",contributor=\"{name}\"}} {}\n",
                    pick(agg)
                ));
            }
        }
    }
    out.push_str("# TYPE crowdtune_calibration_coverage90 gauge\n");
    for (scen, sq) in &rollup.scenarios {
        if let Some(cov) = sq.coverage90 {
            out.push_str(&format!(
                "crowdtune_calibration_coverage90{{scenario=\"{scen}\"}} {cov}\n"
            ));
        }
    }
    out.push_str("# TYPE crowdtune_calibration_nll_per_point gauge\n");
    for (scen, sq) in &rollup.scenarios {
        if let Some(nll) = sq.nll_pp {
            out.push_str(&format!(
                "crowdtune_calibration_nll_per_point{{scenario=\"{scen}\"}} {nll}\n"
            ));
        }
    }
    out
}

/// Renders the current process-global metrics to `path`, creating parent
/// directories as needed — the `--oneshot` CI mode.
pub fn write_oneshot<P: AsRef<Path>>(path: P) -> std::io::Result<()> {
    let body = render_prometheus(&crowdtune_obs::snapshot());
    if let Some(parent) = path.as_ref().parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, body)
}

fn serve_one(stream: &mut TcpStream) {
    // Read (and discard) the request head; bounded so a slow client
    // cannot wedge the exposition thread.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let mut buf = [0u8; 4096];
    let mut head = Vec::new();
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                head.extend_from_slice(&buf[..n]);
                if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 16 * 1024 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let body = render_prometheus(&crowdtune_obs::snapshot());
    let response = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

/// A blocking HTTP metrics endpoint on a dedicated thread.
#[derive(Debug)]
pub struct ExpositionServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl ExpositionServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// serving metrics on a background thread.
    pub fn start(addr: &str) -> std::io::Result<ExpositionServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("crowdtune-exposition".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop_flag.load(Ordering::Relaxed) {
                        break;
                    }
                    if let Ok(mut stream) = conn {
                        serve_one(&mut stream);
                    }
                }
            })?;
        Ok(ExpositionServer {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    fn stop_inner(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::Relaxed);
            // Unblock the accept loop with one throwaway connection.
            let _ = TcpStream::connect(self.addr);
            let _ = handle.join();
        }
    }

    /// Stops the listener thread and waits for it to exit.
    pub fn shutdown(mut self) {
        self.stop_inner();
    }
}

impl Drop for ExpositionServer {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// Fetches `http://{addr}/metrics` with a plain blocking socket and
/// returns the raw HTTP response. Used by tests and the smoke driver; a
/// real deployment would point Prometheus at the endpoint instead.
pub fn scrape(addr: SocketAddr) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    write!(
        stream,
        "GET /metrics HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    Ok(response)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// Serializes the tests that flip the process-global metrics flag:
    /// one test disabling metrics while another counts loses its counts.
    fn metrics_guard() -> MutexGuard<'static, ()> {
        static METRICS: Mutex<()> = Mutex::new(());
        // The guarded data is `()`, so a poisoned lock is still usable.
        METRICS.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn sanitize_maps_to_prometheus_charset() {
        assert_eq!(sanitize("gp.fit_restarts"), "crowdtune_gp_fit_restarts");
        assert_eq!(sanitize("db query"), "crowdtune_db_query");
        assert!(sanitize("a.b-c")
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_'));
    }

    #[test]
    fn render_emits_counter_and_summary_families() {
        let _guard = metrics_guard();
        crowdtune_obs::set_metrics_enabled(true);
        crowdtune_obs::count("expo.test_counter", 3);
        crowdtune_obs::observe("expo.test_hist", 1500);
        crowdtune_obs::observe("expo.test_hist", 2500);
        let text = render_prometheus(&crowdtune_obs::snapshot());
        crowdtune_obs::set_metrics_enabled(false);

        assert!(text.contains("# TYPE crowdtune_expo_test_counter_total counter"));
        assert!(text.contains("crowdtune_expo_test_counter_total 3"));
        assert!(text.contains("# TYPE crowdtune_expo_test_hist_ns summary"));
        assert!(text.contains("crowdtune_expo_test_hist_ns_count 2"));
        assert!(text.contains("crowdtune_expo_test_hist_ns_sum 4000"));
        assert!(text.contains("quantile=\"0.5\""));
        // Every non-comment line is `name[{labels}] value` with a numeric
        // value — the shape Prometheus's text parser requires.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (_, value) = line.rsplit_once(' ').expect("space-separated");
            value.parse::<f64>().expect("numeric sample value");
        }
    }

    #[test]
    fn quality_rollup_renders_labelled_gauges() {
        let mut roll = crate::quality::QualityRollup::new();
        roll.ingest(
            "hypre",
            &[
                crowdtune_obs::Event::QualityScore {
                    iter: 0,
                    doc: 1,
                    contributor: "mallory".into(),
                    residual: Some(10.0),
                    score: Some(12.0),
                    flagged: true,
                    duplicate: false,
                },
                crowdtune_obs::Event::Calibration {
                    model: "gp".into(),
                    points: 8,
                    coverage90: Some(0.875),
                    nll_pp: Some(1.5),
                    drift: None,
                    best: None,
                },
            ],
        );
        let text = render_quality_prometheus(&roll);
        assert!(text.contains("# TYPE crowdtune_quality_contributor_scored gauge"));
        assert!(text.contains(
            "crowdtune_quality_contributor_flagged{scenario=\"hypre\",contributor=\"mallory\"} 1"
        ));
        assert!(text.contains("crowdtune_calibration_coverage90{scenario=\"hypre\"} 0.875"));
        assert!(text.contains("crowdtune_calibration_nll_per_point{scenario=\"hypre\"} 1.5"));
        // Same line-shape contract as the main exposition.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (_, value) = line.rsplit_once(' ').expect("space-separated");
            value.parse::<f64>().expect("numeric sample value");
        }
    }

    #[test]
    fn server_serves_fresh_snapshots() {
        let _guard = metrics_guard();
        crowdtune_obs::set_metrics_enabled(true);
        let server = ExpositionServer::start("127.0.0.1:0").expect("bind");
        crowdtune_obs::count("expo.live_counter", 1);
        let first = scrape(server.local_addr()).expect("scrape 1");
        assert!(first.starts_with("HTTP/1.1 200 OK"));
        assert!(first.contains("text/plain; version=0.0.4"));
        assert!(first.contains("crowdtune_expo_live_counter_total"));

        // The endpoint snapshots at request time, not at server start.
        crowdtune_obs::count("expo.live_counter", 41);
        let second = scrape(server.local_addr()).expect("scrape 2");
        crowdtune_obs::set_metrics_enabled(false);
        let line = second
            .lines()
            .find(|l| l.starts_with("crowdtune_expo_live_counter_total "))
            .expect("counter line");
        let value: u64 = line.rsplit_once(' ').unwrap().1.parse().unwrap();
        assert!(value >= 42, "second scrape must see the newer count");
        server.shutdown();
    }
}
