//! Bounds what one protocol message costs the heap on the in-memory
//! fabric. A counting global allocator measures two one-shot assessments
//! of the same study shape at two panel widths; the wider panel runs more
//! LD rounds, and the allocations it makes beyond the narrow one, per
//! message it sends beyond it, are the steady-state price of a message:
//! set-up, handshakes and the LR phase cost about the same in both runs
//! and cancel.
//!
//! A message's own sealing, framing, routing, receiving and decoding
//! allocate nothing in steady state — send buffers are recycled from
//! received ones, the fabric's routing scratch and inboxes keep their
//! capacity, the moments exchange is read and written in place — and
//! this study reads about 0.01 per message (the LD scans' survivor lists
//! growing), the same in both builds. The bound is half an allocation per
//! message: a fresh send buffer per message alone reads about 1.0 and
//! fails, and code that also allocates a vector and a decoded message per
//! frame reads about 4.6.
//!
//! Both builds must hold the bound: check.sh runs this in debug (with
//! the workspace) and in release, where LLVM may elide allocations the
//! debug build makes, so a bound met only in release would hide a
//! regression in the code as written.

use gendpr::core::config::{CollusionMode, FederationConfig, GwasParams};
use gendpr::core::runtime::{run_federation_with, RuntimeOptions};
use gendpr::genomics::synth::SyntheticCohort;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Allocations per extra message the wider run may make.
const BOUND: f64 = 0.5;

/// Counts every allocation, reallocation and zeroed allocation made
/// through the global allocator, by any thread.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter is a relaxed atomic add.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract for `alloc` is passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract for `alloc_zeroed` is passed on.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract for `realloc` is passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc` is passed on.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Paper-shaped LD blocks (the generator's defaults), so the LD scan's
/// one-pair rounds make most of the messages.
fn study(snps: usize) -> SyntheticCohort {
    SyntheticCohort::builder()
        .snps(snps)
        .case_individuals(240)
        .reference_individuals(210)
        .maf_shape(0.35, 1.3)
        .seed(71)
        .build()
}

/// `(allocations, messages)` of one in-memory assessment of `cohort`.
fn assess(cohort: &SyntheticCohort) -> (u64, u64) {
    let config = FederationConfig::new(3)
        .with_collusion(CollusionMode::Fixed(1))
        .with_seed(5);
    let options = RuntimeOptions {
        timeout: Duration::from_secs(60),
        ..RuntimeOptions::default()
    };
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = run_federation_with(
        config,
        GwasParams::secure_genome_defaults(),
        cohort,
        None,
        options,
    )
    .expect("the assessment certifies");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    (allocations, report.traffic.messages)
}

#[test]
fn a_message_costs_no_allocation_in_steady_state() {
    let (narrow, wide) = (study(300), study(900));
    // A first run warms the process-wide state (metric registries,
    // thread-local buffers) that neither measured run should pay.
    assess(&narrow);
    let (allocations_a, messages_a) = assess(&narrow);
    let (allocations_b, messages_b) = assess(&wide);
    assert!(
        messages_b > messages_a + 1_000,
        "the wide panel must add LD rounds: {messages_a} → {messages_b} messages"
    );
    let per_message =
        (allocations_b as f64 - allocations_a as f64) / (messages_b - messages_a) as f64;
    println!(
        "{allocations_a} allocations / {messages_a} messages → \
         {allocations_b} / {messages_b}: {per_message:.2} per extra message"
    );
    assert!(
        per_message <= BOUND,
        "{per_message:.2} allocations per message, bound {BOUND}"
    );
}
