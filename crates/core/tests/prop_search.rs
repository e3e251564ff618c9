//! Property tests for the search frontier.
//!
//! Whatever order a [`Strategy`] imposes, the frontier must stay a faithful
//! container: every pushed state is popped exactly once (no drops, no
//! duplicates), selection never goes out of bounds, and coverage updates
//! between pops — which reshuffle every strategy's priorities — can only
//! reorder states, never lose them.

use ddt_core::coverage::Coverage;
use ddt_core::{Frontier, Machine, Strategy};
use ddt_isa::analysis;
use ddt_kernel::Kernel;
use ddt_symvm::{SymCounter, SymState};
use proptest::prelude::*;
// `ddt_core::Strategy` shadows the proptest trait of the same name.
use proptest::strategy::Strategy as PropStrategy;

/// A minimal machine whose only interesting properties are its id and pc.
fn machine_at(id: u64, pc: u32) -> Machine {
    let mut m = Machine::new(SymState::new(SymCounter::new()), Kernel::new());
    m.id = id;
    m.st.cpu.pc = pc;
    m
}

/// One shared analysis: strategies rank against real block structure, and
/// half the generated pcs deliberately fall outside it (foreign pcs must
/// degrade gracefully, never panic).
fn pcnet_analysis() -> analysis::CodeAnalysis {
    let spec = ddt_drivers::driver_by_name("pcnet").expect("bundled");
    analysis::analyze(&spec.build().image)
}

/// One scripted frontier interaction: pushes, pops, and coverage mutations
/// interleaved, driven by a seed vector.
#[derive(Clone, Debug)]
enum Step {
    Push { id_salt: u64, pc_salt: usize },
    Pop,
    Exec { pc_salt: usize },
}

fn arb_step() -> impl proptest::strategy::Strategy<Value = Step> {
    prop_oneof![
        (any::<u64>(), any::<usize>())
            .prop_map(|(id_salt, pc_salt)| Step::Push { id_salt, pc_salt }),
        Just(Step::Pop),
        any::<usize>().prop_map(|pc_salt| Step::Exec { pc_salt }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The container law: under every strategy, with coverage mutating
    /// between pops, the multiset of popped ids equals the multiset of
    /// pushed ids (pop everything at the end to drain stragglers).
    #[test]
    fn every_pushed_state_pops_exactly_once(
        steps in proptest::collection::vec(arb_step(), 1..60),
        strategy_pick in 0usize..Strategy::ALL.len(),
    ) {
        let strategy = Strategy::ALL[strategy_pick];
        let analysis = pcnet_analysis();
        // Candidate pcs: real block starts plus a few foreign addresses.
        let mut pcs: Vec<u32> = analysis.blocks.iter().map(|b| b.start).take(12).collect();
        pcs.extend([0xdead_0000, 0x1, 0xffff_fff0]);
        let mut coverage = Coverage::new(analysis);

        let mut frontier = Frontier::new(strategy, Vec::new());
        let mut pushed: Vec<u64> = Vec::new();
        let mut popped: Vec<u64> = Vec::new();
        let mut next_unique: u64 = 1;
        for step in steps {
            match step {
                Step::Push { id_salt, pc_salt } => {
                    // Unique ids so the multiset check is exact.
                    let id = (id_salt << 16) | next_unique;
                    next_unique += 1;
                    let pc = pcs[pc_salt % pcs.len()];
                    pushed.push(id);
                    frontier.push(machine_at(id, pc));
                }
                Step::Pop => {
                    let len_before = frontier.len();
                    if let Some(m) = frontier.pop(&coverage) {
                        prop_assert_eq!(frontier.len(), len_before - 1);
                        popped.push(m.id);
                    } else {
                        prop_assert_eq!(len_before, 0);
                    }
                }
                Step::Exec { pc_salt } => {
                    coverage.on_exec(pcs[pc_salt % pcs.len()]);
                }
            }
        }
        while let Some(m) = frontier.pop(&coverage) {
            popped.push(m.id);
        }
        prop_assert!(frontier.is_empty());
        pushed.sort_unstable();
        popped.sort_unstable();
        prop_assert_eq!(pushed, popped, "{} dropped or duplicated states", strategy.name());
    }

    /// Selection is deterministic: the same frontier contents and the same
    /// coverage always pick the same state, for every strategy.
    #[test]
    fn selection_is_deterministic(
        salts in proptest::collection::vec((any::<u64>(), any::<usize>()), 2..24),
        warm in proptest::collection::vec(any::<usize>(), 0..16),
    ) {
        let analysis = pcnet_analysis();
        let pcs: Vec<u32> = analysis.blocks.iter().map(|b| b.start).take(16).collect();
        for strategy in Strategy::ALL {
            let mut coverage = Coverage::new(analysis.clone());
            for &w in &warm {
                coverage.on_exec(pcs[w % pcs.len()]);
            }
            let items: Vec<Machine> = salts
                .iter()
                .enumerate()
                .map(|(i, &(id, pc))| machine_at(id ^ i as u64, pcs[pc % pcs.len()]))
                .collect();
            let a = strategy.select(&items, &coverage);
            let b = strategy.select(&items, &coverage);
            prop_assert!(a < items.len(), "{}: out of bounds", strategy.name());
            prop_assert_eq!(a, b, "{}: unstable selection", strategy.name());
        }
    }
}
