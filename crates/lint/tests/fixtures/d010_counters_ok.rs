//! D010 fixture, clean variant: a documented key passes as-is, and a
//! `match`-shaped key site is understood arm by arm.

pub fn emit(counters: &mut CounterSet, kind: TransferKind) {
    counters.incr("frames_emitted");
    counters.incr(match kind {
        TransferKind::Data => "transfers_data",
        TransferKind::Ack => "transfers_ack",
    });
}
