//! What serving costs the process besides memory (Linux: counted in
//! `/proc/self`). One `#[test]`, alone in its binary, because thread and
//! descriptor counts are process-wide and any test running beside it would
//! move them.
//!
//! * The engine owns no thread: constructing one and answering requests
//!   leaves `/proc/self/task` as it was — callers score their own batches.
//! * The TCP front end's books follow the connections open *now*: after
//!   300 connect → recommend → drop cycles the descriptor and thread counts
//!   are within a small constant of where they started (they grew by one
//!   descriptor and one `JoinHandle` per connection ever accepted before),
//!   and `stop()` still joins everything.
#![cfg(target_os = "linux")]

use bsl_linalg::Matrix;
use bsl_serve::{
    BatchPolicy, EvalScore, ModelArtifact, RecommendRequest, ServeClient, ServeEngine, ServeState,
    TcpFrontend,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn entries(dir: &str) -> usize {
    std::fs::read_dir(dir).expect("procfs").count()
}

fn tasks() -> usize {
    entries("/proc/self/task")
}

fn fds() -> usize {
    // `read_dir` holds one descriptor itself while counting: the same one
    // in every call, so differences are exact.
    entries("/proc/self/fd")
}

/// Connection threads end some time after their client hung up; nothing
/// signals it, so wait for the counts to come down (they never do if the
/// front end leaks).
fn settles(what: &str, limit: usize, count: impl Fn() -> usize) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while count() > limit {
        assert!(Instant::now() < deadline, "{what}: {} still above {limit}", count());
        std::thread::yield_now();
    }
}

#[test]
fn engine_owns_no_thread_and_frontend_keeps_no_past_connection() {
    let mut rng = StdRng::seed_from_u64(5);
    let users = Matrix::gaussian(16, 8, 1.0, &mut rng);
    let items = Matrix::gaussian(200, 8, 1.0, &mut rng);
    let artifact = ModelArtifact::from_embeddings("MF", &users, &items, EvalScore::Dot);

    let (tasks0, fds0) = (tasks(), fds());
    let engine = ServeEngine::single_tenant(ServeState::new(artifact), BatchPolicy::default());
    for i in 0..100u32 {
        let resp = engine.recommend(ServeEngine::DEFAULT_TENANT, RecommendRequest::new(i % 16, 5));
        assert_eq!(resp.expect("served").recs.len(), 5);
    }
    assert_eq!(tasks(), tasks0, "the engine spawned a thread");

    let mut frontend = TcpFrontend::start(Arc::clone(&engine), "127.0.0.1:0").expect("loopback");
    let addr = frontend.local_addr();
    for i in 0..300u32 {
        let mut client = ServeClient::connect(addr).expect("connect");
        let resp = client.recommend("default", RecommendRequest::new(i % 16, 5)).expect("served");
        assert_eq!(resp.recs.len(), 5);
    }
    // Listener + accept thread, and slack for the last few connections if
    // they wind down slowly; a leak would read 300 and 600 above.
    settles("threads", tasks0 + 1 + 4, tasks);
    settles("descriptors", fds0 + 1 + 8, fds);

    // A connection that is open when the front end stops is shut down and
    // its thread joined with the rest.
    let mut open = ServeClient::connect(addr).expect("connect");
    open.recommend("default", RecommendRequest::new(0, 5)).expect("served");
    frontend.stop();
    assert!(open.recommend("default", RecommendRequest::new(0, 5)).is_err(), "server side closed");
    drop(open);
    assert_eq!(tasks(), tasks0, "stop() left a thread running");
    assert_eq!(fds(), fds0, "stop() left a descriptor open");
    engine.shutdown();
}
