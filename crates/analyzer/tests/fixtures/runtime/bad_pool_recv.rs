//! ND014 fixture (path says `runtime/`): a pool task that parks on a
//! blocking channel receive holds a worker hostage — with fewer workers
//! than chunks the sender may never be scheduled and the run deadlocks.
//! The coordinator-side receive (outside any task closure) and the
//! waived handoff stay quiet.

fn schedule(scope: &PoolScope, rx: Receiver<Reply>) {
    scope.spawn(move || {
        let reply = rx.recv().expect("coordinator alive");
        apply(reply);
    });
    scope.spawn_urgent(move || {
        if let Ok(v) = rx.recv_timeout(BUDGET) {
            apply(v);
        }
    });
}

fn coordinate(rx: &Receiver<WorkerResult>) {
    // The coordinator is not a pool worker: waiting here is the design.
    let result = rx.recv().expect("worker alive");
    commit(result);
}

fn handoff(scope: &PoolScope, rx: Receiver<Seal>) {
    scope.spawn(move || {
        // stats-analyzer: allow(ND014): bounded handoff, sender already ran
        let seal = rx.recv().expect("sealed");
        publish(seal);
    });
}
