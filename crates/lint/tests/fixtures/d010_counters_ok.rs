//! D010 fixture, clean variant: a documented key passes as-is, a
//! `match`-shaped key site is understood arm by arm, and a deliberate
//! fixture-local key is justified with an on-line allow.

pub fn emit(counters: &mut CounterSet, kind: TransferKind) {
    counters.incr("frames_emitted");
    counters.incr(match kind {
        TransferKind::Data => "transfers_data",
        TransferKind::Ack => "transfers_ack",
    });
    counters.incr("fixture_scratch"); // lint: allow(D010) — fixture-local scratch key, never merged into real reports
}
