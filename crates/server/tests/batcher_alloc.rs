//! A warmed micro-batcher flush allocates only what its replies carry.
//!
//! Each executor runs its tiles on an arena it keeps for its whole life,
//! so once every arena has met its peak demand a flush spawns no thread
//! and allocates no working set: what is left per request is the
//! request's own bookkeeping (its responder box, its shared record, its
//! output slots) plus one buffer per output plane, which the reply hands
//! to the caller and the arena replaces on its next tile. This test pins
//! that with a counting global allocator: drive a warmed tiny-demo
//! batcher with 32-plane requests and bound the allocations per request
//! by the output planes plus [`PER_REQUEST_BOOKKEEPING`]. A per-tile or
//! per-layer allocation breaks the bound.
//!
//! One `#[test]` only: the counting allocator is process-global, and a
//! concurrent test's allocations would race the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::Duration;

use wp_server::batcher::{Batcher, BatcherConfig};
use wp_server::demo::{demo_prepared, DemoSize};
use wp_server::metrics::ModelMetrics;

/// Counts allocator entries (alloc/realloc) while armed; frees are not
/// counted.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Planes per request: one full `max_batch`, four tiles.
const PLANES: usize = 32;
/// Requests in flight at once, as two closed-loop clients would keep.
const WAVE: usize = 2;
/// Waves run before counting, to bring every executor's arena to its
/// peak demand.
const WARMUP_WAVES: usize = 16;
/// Waves counted.
const MEASURED_WAVES: usize = 16;
/// Allocations a request may make besides its output planes: the
/// responder box, the shared request record and its output slots, with
/// one to spare.
const PER_REQUEST_BOOKKEEPING: u64 = 4;

/// Replies received and replies that matched `run_one`.
#[derive(Default)]
struct Tally {
    replies: usize,
    correct: usize,
}

#[test]
fn warmed_batcher_flush_allocates_only_its_output_planes() {
    let net = Arc::new(demo_prepared(DemoSize::Tiny, 7));
    let inputs = net.fabricate_inputs(PLANES, 5);
    let expected: Arc<Vec<Vec<i32>>> = Arc::new(inputs.iter().map(|x| net.run_one(x)).collect());
    let config = BatcherConfig {
        max_batch: PLANES,
        max_wait: Duration::from_millis(2),
        threads: 2,
        max_queue: 1024,
    };
    let batcher = Batcher::start(
        Arc::new(RwLock::new(Arc::clone(&net))),
        config,
        Arc::new(ModelMetrics::new()),
    );
    let done = Arc::new((Mutex::new(Tally::default()), Condvar::new()));
    // Every request's planes are built up front, outside the counted
    // window: a client's input buffers are not the batcher's allocations.
    let mut requests: Vec<Vec<Vec<i32>>> =
        (0..(WARMUP_WAVES + MEASURED_WAVES) * WAVE).map(|_| inputs.clone()).collect();

    let wave = |batcher: &Batcher, requests: &mut Vec<Vec<Vec<i32>>>| {
        let before = done.0.lock().unwrap().replies;
        for _ in 0..WAVE {
            let (done, expected) = (Arc::clone(&done), Arc::clone(&expected));
            let request = requests.pop().expect("request built up front");
            batcher.submit_callback(request, 0, move |result| {
                let (tally, cv) = &*done;
                let mut tally = tally.lock().unwrap();
                tally.replies += 1;
                tally.correct += usize::from(result.is_ok_and(|out| out == *expected));
                cv.notify_all();
            });
        }
        let (tally, cv) = &*done;
        let guard = tally.lock().unwrap();
        let (guard, timeout) = cv
            .wait_timeout_while(guard, Duration::from_secs(30), |t| t.replies < before + WAVE)
            .unwrap();
        drop(guard);
        assert!(!timeout.timed_out(), "a wave went unanswered");
    };

    for _ in 0..WARMUP_WAVES {
        wave(&batcher, &mut requests);
    }
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    for _ in 0..MEASURED_WAVES {
        wave(&batcher, &mut requests);
    }
    ARMED.store(false, Ordering::SeqCst);
    let allocs = ALLOCS.load(Ordering::SeqCst);
    batcher.shutdown();

    let tally = done.0.lock().unwrap();
    let total = (WARMUP_WAVES + MEASURED_WAVES) * WAVE;
    assert_eq!((tally.replies, tally.correct), (total, total), "every reply equals run_one");
    let measured = (MEASURED_WAVES * WAVE) as u64;
    let bound = measured * (PLANES as u64 + PER_REQUEST_BOOKKEEPING);
    assert!(
        allocs <= bound,
        "{allocs} allocations for {measured} warmed {PLANES}-plane requests \
         (bound {bound}: the output planes plus {PER_REQUEST_BOOKKEEPING} each)"
    );
}
