//! Determinism self-test of the benchmark.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (about three minutes; a debug build is ten times slower).
//!
//! Everything runs in one test function: the heap counter behind the
//! memory figures is process-wide, so passes running on parallel test
//! threads would see each other's allocations.

use chamulteon_perfbench::{run_pass, PassOutputs, Workload};

#[test]
fn counts_repeat_for_a_seed_and_the_seed_reaches_the_generators() {
    for workload in Workload::ALL {
        let name = workload.name();
        let (first, outputs) = run_pass(workload, 1, true).expect("pass runs");
        let (again, outputs_again) = run_pass(workload, 1, true).expect("pass runs");
        assert_eq!(first.counts, again.counts, "{name}: counts differ");
        assert_eq!(outputs, outputs_again, "{name}: outputs differ");
        assert!(first.counts.cycles > 0, "{name}: no cycles");

        // The untraced pass decides exactly what the traced one did, and
        // its heap figures repeat exactly.
        let (untraced, untraced_outputs) = run_pass(workload, 1, false).expect("pass runs");
        let (untraced_again, _) = run_pass(workload, 1, false).expect("pass runs");
        assert_eq!(
            (untraced.peak_heap_bytes, untraced.held_heap_bytes_sum),
            (
                untraced_again.peak_heap_bytes,
                untraced_again.held_heap_bytes_sum
            ),
            "{name}: heap figures differ"
        );
        assert_eq!(
            untraced_outputs, outputs,
            "{name}: tracing changed an output"
        );
        assert_eq!(untraced.counts.cycles, first.counts.cycles, "{name}");

        let (other, other_outputs) = run_pass(workload, 2, false).expect("pass runs");
        match (&outputs, &other_outputs) {
            (PassOutputs::Trace(_), PassOutputs::Trace(_)) => assert_ne!(
                other.counts.requests, first.counts.requests,
                "{name}: seed does not reach the trace generators"
            ),
            (PassOutputs::Graph(a), PassOutputs::Graph(b)) => {
                assert_ne!(a, b, "{name}: seed does not reach the generators")
            }
            _ => panic!("{name}: pass kinds differ"),
        }
    }
}
