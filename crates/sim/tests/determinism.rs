//! The observability layer must be a pure observer: attaching any sink —
//! no-op, in-memory, or JSONL — must leave every semantic field of the
//! exploration bit-identical to an uninstrumented run. Only wall-clock
//! readings (which live in `ExploreStats::wall`) may differ.

use std::sync::Arc;
use std::time::Duration;

use lfm_obs::{FlightRecorder, JsonlSink, MemorySink, NoopSink, PhaseProfiler, Sink, TeeSink};
use lfm_sim::{ExploreLimits, ExploreReport, Explorer, Expr, ParExplorer, ProgramBuilder, Stmt};

fn racy_counter(n_threads: usize) -> lfm_sim::Program {
    let mut b = ProgramBuilder::new("racy-counter");
    let v = b.var("counter", 0);
    let names: &[&'static str] = &["a", "b", "c"];
    for name in &names[..n_threads] {
        b.thread(
            name,
            vec![
                Stmt::read(v, "tmp"),
                Stmt::write(v, Expr::local("tmp") + Expr::lit(1)),
            ],
        );
    }
    b.final_assert(
        Expr::shared(v).eq(Expr::lit(n_threads as i64)),
        "all increments kept",
    );
    b.build().unwrap()
}

fn explore(p: &lfm_sim::Program, sink: Arc<dyn Sink>) -> ExploreReport {
    Explorer::new(p)
        .limits(ExploreLimits {
            max_schedules: 60,
            ..ExploreLimits::default()
        })
        .with_sink(sink)
        .run()
}

#[test]
fn sinks_do_not_perturb_exploration() {
    let p = racy_counter(3);
    let baseline = Explorer::new(&p)
        .limits(ExploreLimits {
            max_schedules: 60,
            ..ExploreLimits::default()
        })
        .run();

    let noop = explore(&p, Arc::new(NoopSink));
    let memory_sink = Arc::new(MemorySink::new());
    let memory = explore(&p, memory_sink.clone());

    assert_eq!(baseline.without_wall(), noop.without_wall());
    assert_eq!(baseline.without_wall(), memory.without_wall());
    // The memory sink actually observed the run the no-op sink skipped.
    assert_eq!(memory_sink.events_named("explore", "start").len(), 1);
    assert_eq!(memory_sink.events_named("explore", "report").len(), 1);
}

#[test]
fn jsonl_sink_does_not_perturb_exploration() {
    let p = racy_counter(2);
    let baseline = Explorer::new(&p).run();

    let dir = std::env::temp_dir().join("lfm-obs-determinism");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("run-{}.jsonl", std::process::id()));
    let sink = JsonlSink::create(&path).unwrap();
    let logged = Explorer::new(&p).with_sink(Arc::new(sink)).run();

    assert_eq!(baseline.without_wall(), logged.without_wall());
    let log = std::fs::read_to_string(&path).unwrap();
    assert!(log.lines().any(|l| l.contains("\"event\":\"report\"")));
    std::fs::remove_file(&path).ok();
}

#[test]
fn repeated_instrumented_runs_are_bit_identical() {
    let p = racy_counter(3);
    let a = explore(&p, Arc::new(MemorySink::new()));
    let b = explore(&p, Arc::new(MemorySink::new()));
    assert_eq!(a.without_wall(), b.without_wall());
}

/// Everything on at once — phase profiler sampling every entry, flight
/// recorder teed in, progress tracking at its tightest cadence — still
/// changes nothing the report can see.
#[test]
fn full_observation_does_not_perturb_exploration() {
    let p = racy_counter(3);
    // Enough schedules to cross the explorer's progress-check stride
    // (every 64th schedule) so the estimator genuinely emits.
    let limits = ExploreLimits {
        max_schedules: 200,
        ..ExploreLimits::default()
    };
    let baseline = Explorer::new(&p).limits(limits.clone()).run();

    let profiler = Arc::new(PhaseProfiler::sampling(0)); // sample everything
    let recorder = Arc::new(FlightRecorder::new());
    let memory = Arc::new(MemorySink::new());
    let sink: Arc<dyn Sink> = Arc::new(TeeSink::new(vec![
        Arc::clone(&memory) as Arc<dyn Sink>,
        Arc::clone(&recorder) as Arc<dyn Sink>,
    ]));
    let observed = Explorer::new(&p)
        .limits(limits.clone())
        .with_sink(sink)
        .profile(Arc::clone(&profiler))
        .progress_every(Duration::from_nanos(1))
        .run();

    assert_eq!(baseline.without_wall(), observed.without_wall());
    // And the instruments genuinely ran: phases were timed, events
    // reached the ring, progress ticks were emitted.
    let profile = profiler.snapshot();
    assert!(!profile.is_empty(), "profiler saw no phases");
    assert!(profile.est_grand_total_nanos() > 0);
    assert!(recorder.recorded() > 0, "flight recorder saw no events");
    assert!(
        !memory.events_named("explore", "progress_est").is_empty(),
        "no progress_est events at a 1ns cadence"
    );
}

/// The serial and parallel explorers share their report plumbing, so
/// every field of the serial `explore`/`start` and `explore`/`report`
/// events appears in the parallel event with the same value. Only the
/// wall-clock-derived fields may differ.
#[test]
fn serial_and_parallel_events_agree_field_for_field() {
    let p = racy_counter(3);
    let base = ExploreLimits {
        deadline: Some(Duration::from_secs(600)),
        ..ExploreLimits::default()
    };
    let configs = [
        ("classic", base.clone()),
        (
            "dedup",
            ExploreLimits {
                dedup_states: true,
                ..base.clone()
            },
        ),
        (
            "dpor",
            ExploreLimits {
                dpor: true,
                ..base.clone()
            },
        ),
    ];
    for (label, limits) in configs {
        let serial = Arc::new(MemorySink::new());
        Explorer::new(&p)
            .limits(limits.clone())
            .with_sink(serial.clone())
            .run();
        let parallel = Arc::new(MemorySink::new());
        ParExplorer::new(&p)
            .limits(limits)
            .jobs(2)
            .with_sink(parallel.clone())
            .run();
        for name in ["start", "report"] {
            let s = serial.events_named("explore", name);
            let par = parallel.events_named("explore", name);
            assert_eq!((s.len(), par.len()), (1, 1), "{label}: one {name} event");
            for (key, value) in &s[0].fields {
                if matches!(
                    key.as_str(),
                    "wall_us" | "schedules_per_sec" | "states_per_sec"
                ) {
                    continue;
                }
                assert_eq!(par[0].field(key), Some(value), "{label} {name}: {key}");
            }
        }
    }
}
