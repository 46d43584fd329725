//! Property tests for the identity-first access lookup: whatever the
//! memo's slots hold, `AccessTable::id_of` and `AccessTable::intern` must
//! answer exactly as a plain `(op, resource, server) → id` map would.
//!
//! Each case interns more distinct accesses than the memo has slots, so
//! slots collide and get overwritten, and queries each access three ways:
//! through the table's own name allocations (the identity hit), through
//! an equal access built from fresh strings (the hash fallback), and as
//! an access the table has never seen.

use std::collections::HashMap;

use stacl_ids::prop::forall;
use stacl_ids::rng::SplitMix64;
use stacl_sral::Access;
use stacl_trace::{AccessId, AccessTable};

type Key = (String, String, String);

fn key(a: &Access) -> Key {
    (
        a.op.to_string(),
        a.resource.to_string(),
        a.server.to_string(),
    )
}

/// The access under test: a shared-allocation copy of the one the
/// table stored, an equal access with fresh allocations, or an access
/// outside the universe.
fn pick(rng: &mut SplitMix64, universe: &[Access], stored: &[Option<Access>]) -> Access {
    let i = rng.gen_range(0..universe.len());
    match rng.gen_range(0u32..3) {
        0 => stored[i].clone().unwrap_or_else(|| universe[i].clone()),
        1 => Access::new(
            &*universe[i].op,
            &*universe[i].resource,
            &*universe[i].server,
        ),
        _ => Access::new("unknown", format!("u{i}"), &*universe[i].server),
    }
}

/// Every universe member through both its stored and a fresh copy, plus
/// one unknown access, must resolve as the model says.
fn assert_matches(
    table: &AccessTable,
    model: &HashMap<Key, u32>,
    universe: &[Access],
    stored: &[Option<Access>],
) {
    for (u, s) in universe.iter().zip(stored) {
        let want = model.get(&key(u)).map(|&i| AccessId(i));
        let fresh = Access::new(&*u.op, &*u.resource, &*u.server);
        assert_eq!(table.id_of(&fresh), want, "fresh {u}");
        if let Some(s) = s {
            assert_eq!(table.id_of(s), want, "stored {u}");
        }
    }
    assert_eq!(table.id_of(&Access::new("unknown", "x", "y")), None);
    assert_eq!(table.len(), model.len());
}

#[test]
fn id_of_and_intern_match_a_string_model() {
    forall("identity-memo-vs-model", 0x1d3e, 64, |rng| {
        let n = rng.gen_range(33..120usize);
        let universe: Vec<Access> = (0..n)
            .map(|i| {
                Access::new(
                    format!("op{}", i % 3),
                    format!("r{i}"),
                    format!("s{}", i % 5),
                )
            })
            .collect();
        // `stored[i]`: the copy whose allocations the table holds for
        // universe member `i`, once interned.
        let mut stored: Vec<Option<Access>> = vec![None; n];
        let mut table = AccessTable::new();
        let mut model: HashMap<Key, u32> = HashMap::new();
        for _ in 0..rng.gen_range(50..600usize) {
            let a = pick(rng, &universe, &stored);
            match rng.gen_range(0u32..8) {
                0..=3 => {
                    let next = model.len() as u32;
                    let want = *model.entry(key(&a)).or_insert(next);
                    let got = table.intern(&a);
                    assert_eq!(got, AccessId(want), "intern {a}");
                    assert_eq!(table.resolve(got), &a);
                    if let Some(i) = universe.iter().position(|u| *u == a) {
                        stored[i].get_or_insert(a);
                    }
                }
                4..=6 => {
                    let want = model.get(&key(&a)).map(|&i| AccessId(i));
                    assert_eq!(table.id_of(&a), want, "id_of {a}");
                }
                // A clone shares the stored allocations and must answer
                // the same; carry on growing the clone.
                _ => {
                    let copy = table.clone();
                    assert_matches(&copy, &model, &universe, &stored);
                    table = copy;
                }
            }
        }
        assert_matches(&table, &model, &universe, &stored);
    });
}
