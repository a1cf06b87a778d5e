//! Fixture: allow-comment hygiene violations (all three D000 shapes, plus
//! allows naming the retired D009, D015 and D016).

use std::collections::HashMap; // lint: allow(D003)

pub fn stale() {} // lint: allow(D001) — nothing on this line needs an allow

pub fn unknown() {} // lint: allow(D999) — no such rule exists

pub fn retired_reach() {} // lint: allow(D009) — retired: the workspace call graph is gone

pub fn retired_alloc() {} // lint: allow(D015) — retired: the allocation invariant is a test now

pub fn retired_hoist() {} // lint: allow(D016) — retired: the allocation invariant is a test now

pub fn user(m: &HashMap<u32, u32>) -> usize {
    m.len()
}
