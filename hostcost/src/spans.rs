//! The traced run's span recorder. Spans are wrapped around the calls the
//! benchmark makes into each layer, kept in memory, and written once at
//! exit as Chrome/Perfetto JSON. Recording is off unless the traced run
//! turns it on, so untraced timings never pay for it.

use std::cell::Cell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span: `[start_ns, end_ns)` since the recorder's origin.
#[derive(Debug)]
pub struct Span {
    /// Unique within the run; never 0.
    pub id: u64,
    /// The span that caused this one; 0 for a root.
    pub parent: u64,
    /// Layer the call enters ("vibe::runner", "simkit", "fabric", …).
    pub layer: &'static str,
    /// What was called.
    pub name: String,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
    /// Small per-thread number (Perfetto track).
    pub tid: u32,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU32 = AtomicU32::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static TID: Cell<Option<u32>> = const { Cell::new(None) };
}

fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

fn tid() -> u32 {
    TID.with(|t| match t.get() {
        Some(id) => id,
        None => {
            let id = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            t.set(Some(id));
            id
        }
    })
}

/// Turn recording on or off.
pub fn set_enabled(on: bool) {
    origin();
    ENABLED.store(on, Ordering::SeqCst);
}

/// Nanoseconds since the recorder's origin.
pub fn now_ns() -> u64 {
    origin().elapsed().as_nanos() as u64
}

/// Reserve a span id, so children can name their parent before the
/// parent closes. Returns 0 when recording is off.
pub fn reserve() -> u64 {
    if ENABLED.load(Ordering::Relaxed) {
        NEXT_ID.fetch_add(1, Ordering::Relaxed)
    } else {
        0
    }
}

/// Record the span `[start_ns, end_ns)` under a reserved id (no-op for
/// id 0).
pub fn record(id: u64, parent: u64, layer: &'static str, name: String, start_ns: u64, end_ns: u64) {
    if id == 0 {
        return;
    }
    let span = Span {
        id,
        parent,
        layer,
        name,
        start_ns,
        end_ns,
        tid: tid(),
    };
    SPANS.lock().expect("span store lock").push(span);
}

/// Run `f` inside a span named `name` in `layer`, child of `parent`.
/// `f` receives the span's own id for its children (0 when off).
pub fn scope<R>(
    layer: &'static str,
    name: impl Into<String>,
    parent: u64,
    f: impl FnOnce(u64) -> R,
) -> R {
    let id = reserve();
    if id == 0 {
        return f(0);
    }
    let start = now_ns();
    let out = f(id);
    record(id, parent, layer, name.into(), start, now_ns());
    out
}

/// Take every span recorded so far.
pub fn drain() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span store lock"))
}

/// Self time of every span: its duration minus the part of it that the
/// union of its children's intervals covers. Keyed by span id.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut kids: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        kids.entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut iv = kids.remove(&s.id).unwrap_or_default();
            iv.sort_unstable();
            let (mut covered, mut cur) = (0u64, None::<(u64, u64)>);
            for (a, b) in iv {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Render spans as a Chrome/Perfetto trace: one complete (`"ph":"X"`)
/// event per span, carrying id, parent, run id and self time in `args`.
pub fn chrome_json(spans: &[Span], selfs: &HashMap<u64, u64>, run_id: &str) -> String {
    let mut out = String::from("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {}, \"parent\": {}, \"run\": \"{}\", \"self_us\": {:.3}}}}}",
            if i == 0 { "" } else { ",\n" },
            escape(&s.name),
            s.layer,
            s.tid,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id,
            s.parent,
            escape(run_id),
            selfs.get(&s.id).copied().unwrap_or(0) as f64 / 1e3,
        );
    }
    out.push_str("\n]}\n");
    out
}
