//! Admission control, cache policy, and on-disk garbage collection
//! against a live in-process daemon.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use gfp_service::{Client, Daemon, DaemonConfig, JobPhase, JobSource, SubmitRequest};

fn temp_root(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "gfpd-qc-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const WAIT: Duration = Duration::from_secs(120);

/// A job that takes a few seconds in a debug build (n10 multi-round)
/// — long enough to back up a single worker, short enough for CI.
fn busy_submit() -> SubmitRequest {
    SubmitRequest {
        source: JobSource::Suite("n10".into()),
        deadline_ms: 0,
        max_iter: 3,
        max_rounds: 1,
    }
}

#[test]
fn full_queue_rejects_with_retry_hint_and_recovers() {
    let root = temp_root("admission");
    let cfg = DaemonConfig {
        root: root.clone(),
        workers: 1,
        queue_cap: 1,
        retry_base_ms: 5,
        ..DaemonConfig::default()
    };
    let mut daemon = Daemon::start(cfg).unwrap();
    let client = Client::new(daemon.addr());

    // Distinct budgets → distinct content hashes → no cache hits:
    // every submission competes for the single worker + single slot.
    let mut admitted = Vec::new();
    let mut rejections = 0u64;
    for i in 0..6u32 {
        let req = SubmitRequest { max_iter: 3 + i, ..busy_submit() };
        match client.submit(req) {
            Ok((job, _)) => admitted.push(job),
            Err(e) => {
                let msg = e.to_string();
                assert!(msg.contains("rejected"), "unexpected error: {msg}");
                assert!(msg.contains("retry after"), "hint missing: {msg}");
                rejections += 1;
            }
        }
    }
    assert!(
        rejections > 0,
        "6 rapid submissions into a 1-worker / 1-slot daemon must trip admission control"
    );
    assert!(!admitted.is_empty());

    // The daemon's own ledger agrees with the client's count.
    let stats = client.stats().unwrap();
    assert_eq!(stats.rejected, rejections);
    assert_eq!(stats.queue_cap, 1);

    // The retrying client rides out the backlog: admission recovers
    // as the queue drains — an explicit reject is backpressure, not
    // a failure.
    let (job, _) = client
        .submit_with_retry(SubmitRequest { max_iter: 2, max_rounds: 2, ..busy_submit() }, 200)
        .unwrap();
    admitted.push(job);

    for job in admitted {
        let status = client.wait_done(job, WAIT).unwrap();
        assert_eq!(status.phase, JobPhase::Done, "admitted job {job} must finish");
    }
    daemon.stop();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn degraded_results_are_not_cached() {
    let root = temp_root("nocache");
    let cfg =
        DaemonConfig { root: root.clone(), workers: 2, retry_base_ms: 5, ..DaemonConfig::default() };
    let mut daemon = Daemon::start(cfg).unwrap();
    let client = Client::new(daemon.addr());

    // A 1 ms deadline forces a sub-certified verdict (n50 cannot even
    // start a round before the wall budget trips)...
    let req = SubmitRequest {
        source: JobSource::Suite("n50".into()),
        deadline_ms: 1,
        max_iter: 3,
        max_rounds: 3,
    };
    let (job, _) = client.submit(req.clone()).unwrap();
    client.wait_done(job, WAIT).unwrap();
    let first = client.fetch(job).unwrap();
    assert!(first.degraded);

    // ...which must not be memoized: the identical submission gets a
    // fresh attempt, not the poisoned placement.
    let (job2, cache_hit) = client.submit(req).unwrap();
    assert!(!cache_hit, "degraded results must never serve cache hits");
    client.wait_done(job2, WAIT).unwrap();
    daemon.stop();
    let _ = std::fs::remove_dir_all(&root);
}

/// Satellite guarantee: snapshots of dead jobs are actually removed
/// from disk — per-job rings are purged at completion, and done-job
/// directories beyond the retention cap are swept entirely, before the
/// job is reported done: once a client's wait returns, no more than
/// `keep_done` directories of the jobs it has seen finish are left.
#[test]
fn dead_job_snapshots_and_excess_done_dirs_are_removed() {
    let root = temp_root("gc");
    let cfg = DaemonConfig {
        root: root.clone(),
        workers: 1,
        keep_done: 2,
        retry_base_ms: 5,
        ..DaemonConfig::default()
    };
    let mut daemon = Daemon::start(cfg).unwrap();
    let client = Client::new(daemon.addr());

    // Four distinct fast jobs (different budgets → different hashes).
    let mut jobs = Vec::new();
    for i in 0..4u32 {
        let req = SubmitRequest {
            source: JobSource::Suite("n10".into()),
            deadline_ms: 0,
            max_iter: 2 + i,
            max_rounds: 2,
        };
        let (job, cache_hit) = client.submit_with_retry(req, 200).unwrap();
        assert!(!cache_hit);
        jobs.push(job);
    }
    // One worker runs the jobs in order, so after each wait every job
    // up to this one is done; later ones may still be queued.
    for (k, &job) in jobs.iter().enumerate() {
        client.wait_done(job, WAIT).unwrap();
        let finished: Vec<PathBuf> = jobs[..=k]
            .iter()
            .map(|&id| gfp_service::job::job_dir(&root, id))
            .filter(|p| p.is_dir())
            .collect();
        // Retention cap: at most keep_done done-job directories survive.
        assert!(
            finished.len() <= 2,
            "after job {job}: expected ≤ 2 retained done-job dirs, found {}: {finished:?}",
            finished.len()
        );
    }

    let jobs_root = root.join("jobs");
    let dirs: Vec<PathBuf> = std::fs::read_dir(&jobs_root)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    assert!(
        dirs.len() <= 2,
        "expected ≤ 2 retained job dirs, found {}: {dirs:?}",
        dirs.len()
    );
    // And whatever survives holds no checkpoint snapshots: the rings
    // of completed jobs are purged.
    for dir in &dirs {
        let ckpt = dir.join("ckpt");
        let snapshots: Vec<_> = match std::fs::read_dir(&ckpt) {
            Ok(entries) => entries
                .flatten()
                .filter(|e| e.file_name().to_string_lossy().ends_with(".gfps"))
                .collect(),
            Err(_) => Vec::new(),
        };
        assert!(
            snapshots.is_empty(),
            "dead-job snapshots must be removed, found {snapshots:?} in {ckpt:?}"
        );
    }

    // GC'd jobs still serve their results from memory.
    for &job in &jobs {
        let result = client.fetch(job).unwrap();
        assert_eq!(result.job, job);
    }
    daemon.stop();
    let _ = std::fs::remove_dir_all(&root);
}
