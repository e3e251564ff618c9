//! Regenerates the **§5.2 efficiency and scalability** measurements:
//! exploration statistics per driver (paths, states, instructions, solver
//! queries, copy-on-write depth) and the bounded-memory behavior that
//! stands in for the paper's 4 GB limit (our bound is the state cap).
//!
//! The table is printed as Markdown, and EXPERIMENTS.md §5.2 holds a copy
//! of it. Every column but the last (wall time) is deterministic, and CI
//! diffs those columns against the copy.

fn main() {
    println!("Efficiency and scalability (paper §5.2)");
    println!();
    println!(
        "| Driver | paths | peak states | insns | queries | full SAT | symbols | COW max | bugs | wall ms |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|");
    let mut largest = None;
    for spec in ddt_drivers::drivers() {
        let r = ddt_bench::run_ddt(&spec);
        let s = &r.stats;
        println!(
            "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |",
            spec.name,
            s.paths_started,
            s.peak_states,
            s.insns,
            s.solver_queries,
            s.solver_full,
            s.symbols,
            s.max_cow_depth,
            r.bugs.len(),
            s.wall_ms,
        );
        if largest.as_ref().is_none_or(|l: &ddt_core::Report| l.stats.insns < s.insns) {
            largest = Some(r);
        }
    }
    let r = largest.expect("at least one bundled driver");
    let s = &r.stats;
    println!();
    println!("Path disposition for the largest driver ({}):", r.driver);
    println!(
        "  started {} | completed {} | faulted {} | infeasible {} | budget-killed {}",
        s.paths_started, s.paths_completed, s.paths_faulted, s.paths_infeasible,
        s.paths_budget_killed
    );
    println!();
    println!(
        "All runs fit the state cap (the 4 GB analog); the chained copy-on-write \
         keeps per-fork cost flat — max chain depth {} across {}'s {} paths.",
        s.max_cow_depth, r.driver, s.paths_started
    );
}
