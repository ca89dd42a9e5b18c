//! The allocation budget of steady-state row registration, enforced: a
//! 16-id `ingest_candidates` into a session that already holds 100 000
//! rows allocates nothing, because the append-only duplicate check
//! probes the session's registered-candidate set instead of building a
//! table the size of the corpus on every call.
//!
//! As in `crates/core/tests/no_alloc_training.rs`, the budget is
//! asserted only in release builds (debug builds of generic std code may
//! allocate where release builds do not) and a debug run reports the
//! count.

use snorkel_arena::alloc_check::min_allocations_over;
use snorkel_context::{CandidateId, Corpus};
use snorkel_incr::{IncrementalSession, SessionConfig};

#[global_allocator]
static ALLOC: snorkel_arena::CountingAlloc = snorkel_arena::CountingAlloc::new();

const REGISTERED: usize = 100_000;
const BATCH: usize = 16;

#[test]
fn steady_state_ingest_candidates_allocates_nothing() {
    // Registration does not consult the corpus, so synthetic ids over an
    // empty one isolate the bookkeeping from LF execution.
    let mut session = IncrementalSession::new(Corpus::new(), SessionConfig::default());
    let ids: Vec<CandidateId> = (0..REGISTERED).map(CandidateId::from_index).collect();
    session.ingest_candidates(&ids);

    // Fresh ids per attempt, written into one stack buffer. The first
    // attempt may grow the row vector past its exact-fit capacity; the
    // minimum over attempts is the steady state.
    let mut next = REGISTERED;
    let mut batch = [CandidateId::from_index(0); BATCH];
    let allocations = min_allocations_over(8, || {
        for slot in &mut batch {
            *slot = CandidateId::from_index(next);
            next += 1;
        }
        session.ingest_candidates(&batch);
    });
    assert_eq!(session.num_candidates(), next);
    println!("ingest_candidates of {BATCH} ids over {REGISTERED} rows: {allocations} allocations");
    if !cfg!(debug_assertions) {
        assert_eq!(
            allocations, 0,
            "a steady-state ingest allocates in proportion to the corpus"
        );
    }
}
