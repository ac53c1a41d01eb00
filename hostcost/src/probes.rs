//! Layer probes: small, fixed-shape workloads built only from each
//! crate's public API, one per layer, mirroring the `sim_perf` shapes.
//! Each probe asserts its outcome (frames delivered, messages acked, no
//! reconnects), so a probe that silently did less work cannot read
//! faster. The workload seed picks message counts and destinations.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use fabric::{FaultPlan, LinkParams, NetParams, NodeId, PortLimits, San, Topology};
use simkit::{EventClass, Sim, SimDuration, SimTime, WaitMode};
use via::{
    Cluster, Descriptor, Discriminator, MemAttributes, Profile, SessionParams, SessionReceiver,
    SessionSender, ViAttributes,
};

use crate::host::process_cpu_s;
use crate::spans::scope;
use crate::stats::{median, Seq};

/// Probe inputs derived from the workload seed.
pub struct Inputs {
    sleeps: u64,
    events: u64,
    timers: u64,
    frames: u64,
    star_dst: u32,
    fat_tree_dst: u32,
    degrade_dst: u32,
    pingpongs: u64,
}

impl Inputs {
    /// Draw every probe's counts and destinations from `seed`.
    pub fn from_seed(seed: u64) -> Inputs {
        let mut s = Seq::new(seed, "probes");
        Inputs {
            sleeps: s.range(2_000, 512),
            events: s.range(10_000, 2_048),
            timers: s.range(10_000, 2_048),
            frames: s.range(1_000, 256),
            // Star: any host but the sender. Fat-tree (2 edges x 4 hosts):
            // a host on the other edge switch, so every frame crosses a
            // spine.
            star_dst: s.range(1, 7) as u32,
            fat_tree_dst: s.range(4, 4) as u32,
            degrade_dst: s.range(1, 7) as u32,
            pingpongs: s.range(200, 64),
        }
    }
}

/// One probe metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Timed repetitions per probe; each probe reports its median.
const REPS: usize = 9;

/// Messages of the session probe (its shape is fixed: 64 x 1 KiB).
const SESSION_MSGS: u64 = 64;
const SESSION_BYTES: u64 = 1024;

/// Run every probe and return its metrics, each the median of `REPS`
/// timed repetitions. Probes run on one CPU, as a serial pass does.
pub fn run_all(inputs: &Inputs) -> Vec<Metric> {
    let med = |span, f: &dyn Fn(u64) -> f64| median(&mut sample(span, f));
    crate::host::pin_thread(0);
    let mut out = Vec::new();

    let (mut wall_ns, mut cpu_ns): (Vec<f64>, Vec<f64>) =
        sample("probe:handoff", |p| handoff(inputs.sleeps, p))
            .into_iter()
            .unzip();
    out.push((
        "simkit.handoff_wall_ns_per_resume",
        median(&mut wall_ns),
        "ns",
    ));
    out.push((
        "simkit.handoff_cpu_ns_per_resume",
        median(&mut cpu_ns),
        "ns",
    ));
    out.push((
        "simkit.dispatch_ns_per_event",
        med("probe:dispatch", &|p| dispatch(inputs.events, p)),
        "ns",
    ));
    out.push((
        "simkit.timer_cancel_ns_per_timer",
        med("probe:timer_cancel", &|p| timer_cancel(inputs.timers, p)),
        "ns",
    ));
    out.push((
        "fabric.star_ns_per_frame",
        med("probe:star", &|p| {
            frames(Shape::Star, inputs.frames, inputs.star_dst, p)
        }),
        "ns",
    ));
    out.push((
        "fabric.fat_tree_ns_per_frame",
        med("probe:fat_tree", &|p| {
            frames(Shape::FatTree, inputs.frames, inputs.fat_tree_dst, p)
        }),
        "ns",
    ));
    out.push((
        "fabric.degrade_ns_per_frame",
        med("probe:degrade", &|p| {
            frames(Shape::Degrade, inputs.frames, inputs.degrade_dst, p)
        }),
        "ns",
    ));
    for (name, profile) in profiles() {
        let us = med(name, &|p| pingpong(profile.clone(), inputs.pingpongs, p));
        out.push((name, us, "us"));
    }
    out.push(("via.connect_ms", med("probe:connect", &connect), "ms"));
    // The two session legs alternate, so drift hits both alike.
    let (mut raw_us, mut session_us): (Vec<f64>, Vec<f64>) =
        sample("probe:session", |p| (raw_vi_leg(p), session_leg(p)))
            .into_iter()
            .unzip();
    out.push((
        "via.session_tax_us_per_msg",
        median(&mut session_us) - median(&mut raw_us),
        "us",
    ));
    crate::host::unpin_thread();
    out
}

/// `REPS` timed repetitions of one probe, after one untimed repetition
/// with spans on, under a root span of its own.
fn sample<T>(span: &'static str, f: impl Fn(u64) -> T) -> Vec<T> {
    crate::spans::set_enabled(true);
    scope("bench", span, 0, &f);
    crate::spans::set_enabled(false);
    (0..REPS).map(|_| f(0)).collect()
}

fn profiles() -> [(&'static str, Profile); 3] {
    [
        ("via.pingpong_us.clan", Profile::clan()),
        ("via.pingpong_us.bvia", Profile::bvia()),
        ("via.pingpong_us.mvia", Profile::mvia()),
    ]
}

fn run(sim: &Sim, parent: u64) -> simkit::RunReport {
    scope("simkit", "Sim::run_to_completion", parent, |_| {
        sim.run_to_completion()
    })
}

/// Process hand-off: one process sleeping `sleeps` times, so each sleep is
/// one resume. Returns (wall ns, process CPU ns) per resume.
fn handoff(sleeps: u64, parent: u64) -> (f64, f64) {
    let sim = Sim::new();
    let done = sim.spawn("sleeper", None, move |ctx| {
        for _ in 0..sleeps {
            ctx.sleep(SimDuration::from_nanos(50));
        }
        sleeps
    });
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    run(&sim, parent);
    let wall = t0.elapsed().as_secs_f64();
    let cpu = process_cpu_s() - cpu0;
    assert_eq!(done.take_result(), Some(sleeps), "sleeper did not finish");
    (wall * 1e9 / sleeps as f64, cpu * 1e9 / sleeps as f64)
}

/// Engine dispatch: schedule `n` small closures at scattered times and
/// run them. Returns ns per event.
fn dispatch(n: u64, parent: u64) -> f64 {
    let sim = Sim::new();
    let fired = Arc::new(AtomicU64::new(0));
    let t0 = Instant::now();
    for i in 0..n {
        let fired = Arc::clone(&fired);
        sim.call_in(SimDuration::from_nanos(i % 977), move |_| {
            fired.fetch_add(1, Ordering::Relaxed);
        });
    }
    let report = scope("simkit", "Sim::run", parent, |_| sim.run());
    let ns = t0.elapsed().as_secs_f64() * 1e9 / n as f64;
    assert_eq!(fired.load(Ordering::Relaxed), n);
    assert_eq!(report.events, n);
    ns
}

/// Timer cancellation: arm `n` retransmit timers, cancel nine in ten,
/// run. Returns ns per armed timer.
fn timer_cancel(n: u64, parent: u64) -> f64 {
    let sim = Sim::new();
    let fired = Arc::new(AtomicU64::new(0));
    let t0 = Instant::now();
    let handles: Vec<_> = (0..n)
        .map(|i| {
            let fired = Arc::clone(&fired);
            sim.timer_in(
                EventClass::Retransmit,
                SimDuration::from_nanos(1 + i % 977),
                move |_| {
                    fired.fetch_add(1, Ordering::Relaxed);
                },
            )
        })
        .collect();
    let mut cancelled = 0;
    for (i, h) in handles.iter().enumerate() {
        if i % 10 != 0 {
            assert!(h.cancel(), "timer {i} already gone");
            cancelled += 1;
        }
    }
    let report = scope("simkit", "Sim::run", parent, |_| sim.run());
    let ns = t0.elapsed().as_secs_f64() * 1e9 / n as f64;
    assert_eq!(fired.load(Ordering::Relaxed), n - cancelled);
    assert_eq!(report.cancelled(), cancelled);
    ns
}

#[derive(Clone, Copy)]
enum Shape {
    /// 8 hosts on the single-switch star.
    Star,
    /// 2 edges x 4 hosts, 2 spines: three store-and-forward hops.
    FatTree,
    /// 8-host Myrinet star with a latency-only degrade window on the
    /// destination held open for the whole run.
    Degrade,
}

/// Fabric delivery: `n` 1 KiB frames from node 0 to `dst`. Returns ns per
/// frame; construction of the fabric is not timed.
fn frames(shape: Shape, n: u64, dst: u32, parent: u64) -> f64 {
    let sim = Sim::new();
    let san = match shape {
        Shape::Star => San::new_topo(sim.clone(), NetParams::clan(), Topology::star(8), 1),
        Shape::FatTree => {
            let trunk = LinkParams {
                bandwidth_bps: 440_000_000,
                propagation: SimDuration::from_nanos(600),
                frame_overhead_bytes: 8,
                mtu: 64 * 1024,
            };
            let topo = Topology::fat_tree(2, 4, 2, trunk, PortLimits::default());
            San::new_topo(sim.clone(), NetParams::clan(), topo, 1)
        }
        Shape::Degrade => {
            let san = San::new(sim.clone(), NetParams::myrinet(), 8, 1);
            san.install_faults(&FaultPlan::new().degrade(
                NodeId(dst),
                SimTime::ZERO,
                SimDuration::from_secs(3600),
                SimDuration::from_micros(1),
                0.0,
            ));
            san
        }
    };
    let got = Arc::new(AtomicU64::new(0));
    let g2 = Arc::clone(&got);
    san.attach(
        NodeId(dst),
        Arc::new(move |_, _| {
            g2.fetch_add(1, Ordering::Relaxed);
        }),
    );
    let t0 = Instant::now();
    for _ in 0..n {
        scope("fabric", "San::send", parent, |_| {
            san.send(NodeId(0), NodeId(dst), 1024, Box::new(()))
        });
    }
    scope("simkit", "Sim::run", parent, |_| sim.run());
    let ns = t0.elapsed().as_secs_f64() * 1e9 / n as f64;
    assert_eq!(got.load(Ordering::Relaxed), n, "frames lost");
    ns
}

/// VIA ping-pong: `n` 4-byte round trips between two nodes, polled. The
/// client times its own loop, so cluster set-up and connect are not
/// counted. Returns host us per round trip.
fn pingpong(profile: Profile, n: u64, parent: u64) -> f64 {
    let sim = Sim::new();
    let cluster = Cluster::new(sim.clone(), profile, 2, 1);
    let (pa, pb) = (cluster.provider(0), cluster.provider(1));
    let server = sim.spawn("server", Some(pb.cpu()), move |ctx| {
        let vi = pb
            .create_vi(ctx, ViAttributes::default(), None, None)
            .unwrap();
        let buf = pb.malloc(64);
        let mh = pb
            .register_mem(ctx, buf, 64, MemAttributes::default())
            .unwrap();
        vi.post_recv(ctx, Descriptor::recv().segment(buf, mh, 64))
            .unwrap();
        pb.accept(ctx, &vi, Discriminator(1)).unwrap();
        let mut ok = 0;
        for i in 0..n {
            ok += u64::from(vi.recv_wait(ctx, WaitMode::Poll).is_ok());
            if i + 1 < n {
                vi.post_recv(ctx, Descriptor::recv().segment(buf, mh, 64))
                    .unwrap();
            }
            vi.post_send(ctx, Descriptor::send().segment(buf, mh, 4))
                .unwrap();
            ok += u64::from(vi.send_wait(ctx, WaitMode::Poll).is_ok());
        }
        ok
    });
    let client = sim.spawn("client", Some(pa.cpu()), move |ctx| {
        let vi = pa
            .create_vi(ctx, ViAttributes::default(), None, None)
            .unwrap();
        pa.connect(ctx, &vi, NodeId(1), Discriminator(1), None)
            .unwrap();
        let buf = pa.malloc(64);
        let mh = pa
            .register_mem(ctx, buf, 64, MemAttributes::default())
            .unwrap();
        let mut ok = 0;
        let t0 = Instant::now();
        for _ in 0..n {
            scope("via", "Vi::post_recv", parent, |_| {
                vi.post_recv(ctx, Descriptor::recv().segment(buf, mh, 64))
            })
            .unwrap();
            scope("via", "Vi::post_send", parent, |_| {
                vi.post_send(ctx, Descriptor::send().segment(buf, mh, 4))
            })
            .unwrap();
            let r = scope("via", "Vi::recv_wait", parent, |_| {
                vi.recv_wait(ctx, WaitMode::Poll)
            });
            let s = scope("via", "Vi::send_wait", parent, |_| {
                vi.send_wait(ctx, WaitMode::Poll)
            });
            ok += u64::from(r.is_ok() && r.length == 4 && s.is_ok());
        }
        (ok, t0.elapsed().as_secs_f64())
    });
    run(&sim, parent);
    let (ok, secs) = client.take_result().expect("client finished");
    assert_eq!(ok, n, "client round trips failed");
    assert_eq!(
        server.take_result(),
        Some(2 * n),
        "server completions failed"
    );
    secs * 1e6 / n as f64
}

/// Connection set-up: build a 2-node cLAN cluster and connect one VI pair.
/// Returns host ms for the whole, construction included.
fn connect(parent: u64) -> f64 {
    let t0 = Instant::now();
    let sim = Sim::new();
    let cluster = Cluster::new(sim.clone(), Profile::clan(), 2, 1);
    let (pa, pb) = (cluster.provider(0), cluster.provider(1));
    let server = sim.spawn("server", Some(pb.cpu()), move |ctx| {
        let vi = pb
            .create_vi(ctx, ViAttributes::default(), None, None)
            .unwrap();
        pb.accept(ctx, &vi, Discriminator(1)).is_ok()
    });
    let client = sim.spawn("client", Some(pa.cpu()), move |ctx| {
        let vi = pa
            .create_vi(ctx, ViAttributes::default(), None, None)
            .unwrap();
        scope("via", "Provider::connect", parent, |_| {
            pa.connect(ctx, &vi, NodeId(1), Discriminator(1), None)
        })
        .is_ok()
    });
    run(&sim, parent);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(server.take_result(), Some(true), "accept failed");
    assert_eq!(client.take_result(), Some(true), "connect failed");
    ms
}

/// The raw-VI leg of the session probe: 1 KiB out, an ack-sized reply
/// back, `SESSION_MSGS` times. Returns host us per message, whole
/// simulation included.
fn raw_vi_leg(parent: u64) -> f64 {
    const SIZE: u32 = SESSION_BYTES as u32;
    let t0 = Instant::now();
    let sim = Sim::new();
    let cluster = Cluster::new(sim.clone(), Profile::clan(), 2, 1);
    let (pa, pb) = (cluster.provider(0), cluster.provider(1));
    let server = sim.spawn("server", Some(pb.cpu()), move |ctx| {
        let vi = pb
            .create_vi(ctx, ViAttributes::default(), None, None)
            .unwrap();
        let buf = pb.malloc(SESSION_BYTES);
        let mh = pb
            .register_mem(ctx, buf, SESSION_BYTES, MemAttributes::default())
            .unwrap();
        vi.post_recv(ctx, Descriptor::recv().segment(buf, mh, SIZE))
            .unwrap();
        pb.accept(ctx, &vi, Discriminator(1)).unwrap();
        let mut got = 0;
        for i in 0..SESSION_MSGS {
            let c = vi.recv_wait(ctx, WaitMode::Poll);
            got += u64::from(c.is_ok() && c.length == SESSION_BYTES);
            if i + 1 < SESSION_MSGS {
                vi.post_recv(ctx, Descriptor::recv().segment(buf, mh, SIZE))
                    .unwrap();
            }
            vi.post_send(ctx, Descriptor::send().segment(buf, mh, 17))
                .unwrap();
            vi.send_wait(ctx, WaitMode::Poll);
        }
        got
    });
    let client = sim.spawn("client", Some(pa.cpu()), move |ctx| {
        let vi = pa
            .create_vi(ctx, ViAttributes::default(), None, None)
            .unwrap();
        pa.connect(ctx, &vi, NodeId(1), Discriminator(1), None)
            .unwrap();
        let buf = pa.malloc(SESSION_BYTES);
        let mh = pa
            .register_mem(ctx, buf, SESSION_BYTES, MemAttributes::default())
            .unwrap();
        let mut acked = 0;
        for _ in 0..SESSION_MSGS {
            vi.post_recv(ctx, Descriptor::recv().segment(buf, mh, SIZE))
                .unwrap();
            scope("via", "Vi::post_send", parent, |_| {
                vi.post_send(ctx, Descriptor::send().segment(buf, mh, SIZE))
            })
            .unwrap();
            acked += u64::from(vi.recv_wait(ctx, WaitMode::Poll).is_ok());
            vi.send_wait(ctx, WaitMode::Poll);
        }
        acked
    });
    run(&sim, parent);
    let us = t0.elapsed().as_secs_f64() * 1e6 / SESSION_MSGS as f64;
    assert_eq!(
        server.take_result(),
        Some(SESSION_MSGS),
        "raw messages lost"
    );
    assert_eq!(client.take_result(), Some(SESSION_MSGS), "raw replies lost");
    us
}

/// The session leg: the same messages through `via::session` with the
/// heartbeat off. Returns host us per message, whole simulation included.
fn session_leg(parent: u64) -> f64 {
    let t0 = Instant::now();
    let sim = Sim::new();
    let cluster = Cluster::new(sim.clone(), Profile::clan(), 2, 1);
    let (pa, pb) = (cluster.provider(0), cluster.provider(1));
    let rx = sim.spawn("rx", Some(pb.cpu()), move |ctx| {
        let mut r =
            SessionReceiver::new(&pb, ctx, Discriminator(1), SessionParams::default()).unwrap();
        let mut got = 0;
        while let Some(m) = r.recv(ctx) {
            got += u64::from(m.len() == SESSION_BYTES as usize);
        }
        r.close(ctx);
        got
    });
    let tx = sim.spawn("tx", Some(pa.cpu()), move |ctx| {
        let mut s = SessionSender::new(
            &pa,
            ctx,
            NodeId(1),
            Discriminator(1),
            SessionParams::default(),
        )
        .unwrap();
        let payload = vec![0xABu8; SESSION_BYTES as usize];
        for _ in 0..SESSION_MSGS {
            scope("via::session", "SessionSender::send", parent, |_| {
                s.send(ctx, &payload)
            });
        }
        s.close(ctx)
    });
    run(&sim, parent);
    let us = t0.elapsed().as_secs_f64() * 1e6 / SESSION_MSGS as f64;
    let st = tx.take_result().expect("session sender finished");
    assert_eq!(st.acked, SESSION_MSGS, "session messages unacked");
    assert_eq!(st.reconnects, 0, "session reconnected without a fault");
    assert_eq!(
        rx.take_result(),
        Some(SESSION_MSGS),
        "session messages lost"
    );
    us
}
