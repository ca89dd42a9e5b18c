//! Spans recorded from the benchmark's own code, and the stage table
//! built from them.
//!
//! Each load thread owns a [`Tracer`]: spans are pushed to a `Vec` in
//! memory and never touch a lock or the disk while the workload runs.
//! A span's self time is its duration minus its children's, so the self
//! times of a track's span tree sum to the root span — the measured
//! window — exactly. What the program does *inside* a `client.wait_read`
//! span cannot be seen from here; [`StageTable::attribute`] splits that
//! row into the in-process replay's layer times and a named residual.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. `parent` indexes the same tracer's span list.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// Request ordinal on this track; spans of one request share it.
    pub req: u64,
}

/// Span recorder for one thread. Disabled, every call is one branch.
pub struct Tracer {
    pub track: &'static str,
    epoch: Instant,
    on: bool,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(track: &'static str, epoch: Instant, on: bool) -> Tracer {
        Tracer {
            track,
            epoch,
            on,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Start a span as a child of the innermost open one.
    pub fn open(&mut self, name: &'static str, req: u64) {
        if !self.on {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.stack.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.iter().rev().nth(1).copied(),
            req,
        });
    }

    /// End the innermost open span.
    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        let id = self.stack.pop().expect("close without open");
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Run `f` inside a span.
    pub fn scope<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        self.open(name, req);
        let out = f();
        self.close();
        out
    }

    /// Run `f` inside a span; also return how many ns it took, whether
    /// or not the tracer is recording.
    pub fn timed<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> (R, u64) {
        let t = Instant::now();
        let out = self.scope(name, req, f);
        (out, t.elapsed().as_nanos() as u64)
    }
}

/// One row of the stage table: self time of every span with this path
/// below the track's root, averaged over the track's threads.
#[derive(Clone, Debug)]
pub struct StageRow {
    pub track: String,
    pub stage: String,
    pub self_s: f64,
    pub count: u64,
}

/// Per-track self-time table. Each track's rows sum to its window.
#[derive(Clone, Debug, Default)]
pub struct StageTable {
    pub rows: Vec<StageRow>,
    /// `(track, measured window in seconds, threads averaged)`.
    pub windows: Vec<(String, f64, usize)>,
}

impl StageTable {
    /// Fold tracers into rows. Tracers sharing a track name (the two
    /// symmetric clients of a read workload) are averaged, so a track's
    /// rows sum to the mean of its threads' windows.
    pub fn build(tracers: &[Tracer]) -> StageTable {
        let mut table = StageTable::default();
        let mut tracks: Vec<&'static str> = Vec::new();
        for t in tracers {
            if !tracks.contains(&t.track) {
                tracks.push(t.track);
            }
        }
        for track in tracks {
            let group: Vec<&Tracer> = tracers.iter().filter(|t| t.track == track).collect();
            let threads = group.len() as f64;
            let mut acc: BTreeMap<String, (f64, u64)> = BTreeMap::new();
            let mut window = 0.0;
            for tracer in &group {
                let spans = &tracer.spans;
                let mut child_ns = vec![0u64; spans.len()];
                for s in spans {
                    if let Some(p) = s.parent {
                        child_ns[p as usize] += s.end_ns - s.start_ns;
                    }
                }
                for (i, s) in spans.iter().enumerate() {
                    let dur = s.end_ns - s.start_ns;
                    let stage = match s.parent {
                        None => {
                            window += dur as f64 / 1e9;
                            "bench.loop".to_string()
                        }
                        Some(p) if spans[p as usize].parent.is_none() => s.name.to_string(),
                        Some(p) => format!("{} > {}", spans[p as usize].name, s.name),
                    };
                    let e = acc.entry(stage).or_default();
                    e.0 += dur.saturating_sub(child_ns[i]) as f64 / 1e9;
                    e.1 += 1;
                }
            }
            table
                .windows
                .push((track.to_string(), window / threads, group.len()));
            table
                .rows
                .extend(acc.into_iter().map(|(stage, (s, n))| StageRow {
                    track: track.to_string(),
                    stage,
                    self_s: s / threads,
                    count: n,
                }));
        }
        table
    }

    /// Split row `stage` of `track` into `parts` (layer name with how it
    /// was measured, seconds per thread, calls); what they do not
    /// account for stays behind under `residual`.
    pub fn attribute(
        &mut self,
        track: &str,
        stage: &str,
        parts: &[(&str, f64, u64)],
        residual: &str,
    ) {
        let Some(row) = self
            .rows
            .iter_mut()
            .find(|r| r.track == track && r.stage == stage)
        else {
            return;
        };
        row.self_s -= parts.iter().map(|p| p.1).sum::<f64>();
        row.stage = format!("{stage} = {residual}");
        for (name, secs, calls) in parts {
            self.rows.push(StageRow {
                track: track.to_string(),
                stage: format!("{stage} : {name}"),
                self_s: *secs,
                count: *calls,
            });
        }
    }

    /// Seconds in rows whose stage mentions `needle`, on `track`.
    pub fn seconds(&self, track: &str, needle: &str) -> f64 {
        self.rows
            .iter()
            .filter(|r| r.track == track && r.stage.contains(needle))
            .map(|r| r.self_s)
            .sum()
    }

    /// Largest relative gap between a track's rows and its window.
    pub fn max_sum_error(&self) -> f64 {
        self.windows
            .iter()
            .map(|(track, window, _)| {
                let sum: f64 = self
                    .rows
                    .iter()
                    .filter(|r| &r.track == track)
                    .map(|r| r.self_s)
                    .sum();
                ((sum - window) / window).abs()
            })
            .fold(0.0, f64::max)
    }

    /// The table as text, one block per track, largest rows first.
    pub fn render(&self, workload: &str) -> String {
        let mut out = String::new();
        for (track, window, threads) in &self.windows {
            let _ = writeln!(
                out,
                "stage table  workload={workload} track={track} threads={threads} \
                 window={window:.4} s (self times, mean per thread)"
            );
            let mut rows: Vec<&StageRow> = self.rows.iter().filter(|r| &r.track == track).collect();
            rows.sort_by(|a, b| b.self_s.total_cmp(&a.self_s));
            let mut sum = 0.0;
            for r in rows {
                sum += r.self_s;
                let _ = writeln!(
                    out,
                    "  {:<64} {:>10.4} s {:>6.2} %  n={}",
                    r.stage,
                    r.self_s,
                    100.0 * r.self_s / window,
                    r.count
                );
            }
            let _ = writeln!(
                out,
                "  {:<64} {:>10.4} s {:>6.2} %",
                "sum of rows",
                sum,
                100.0 * sum / window
            );
        }
        out
    }
}

/// Most spans per track written to the trace file; the stage table
/// always covers every span.
pub const FILE_SPANS_PER_TRACK: usize = 100_000;

/// The spans as JSON, `FILE_SPANS_PER_TRACK` per tracer at most.
pub fn spans_json(workload: &str, tracers: &[Tracer]) -> String {
    let mut out = format!("{{\"workload\":\"{workload}\",\"tracks\":[");
    for (t, tracer) in tracers.iter().enumerate() {
        if t > 0 {
            out.push(',');
        }
        let written = tracer.spans.len().min(FILE_SPANS_PER_TRACK);
        let _ = write!(
            out,
            "{{\"track\":\"{}\",\"thread\":{t},\"spans_total\":{},\"spans_written\":{written},\"spans\":[",
            tracer.track,
            tracer.spans.len()
        );
        for (i, s) in tracer.spans[..written].iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            );
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_times_sum_to_the_root_and_attribution_keeps_the_sum() {
        let mut t = Tracer::new("client", Instant::now(), true);
        t.spans = vec![
            span("window", 0, 1_000, None),
            span("bin.MARGINAL", 100, 900, Some(0)),
            span("client.write", 100, 200, Some(1)),
            span("client.wait_read", 200, 800, Some(1)),
        ];
        let mut table = StageTable::build(&[t]);
        assert_eq!(table.windows, vec![("client".to_string(), 1e-6, 1)]);
        assert!(table.max_sum_error() < 1e-12);
        let wait = "bin.MARGINAL > client.wait_read";
        assert!((table.seconds("client", wait) - 600e-9).abs() < 1e-15);
        assert!((table.seconds("client", "bench.loop") - 200e-9).abs() < 1e-15);
        table.attribute(
            "client",
            wait,
            &[("serve.hotpath.compute (replayed)", 250e-9, 1)],
            "serve.server.io_residual",
        );
        assert!((table.seconds("client", "io_residual") - 350e-9).abs() < 1e-15);
        assert!(table.max_sum_error() < 1e-12);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new("x", Instant::now(), false);
        t.open("a", 0);
        t.close();
        assert!(t.spans.is_empty());
    }

    #[test]
    fn open_close_nest() {
        let mut t = Tracer::new("x", Instant::now(), true);
        t.open("root", 0);
        t.scope("child", 1, || ());
        t.close();
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[0].parent, None);
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
    }
}
