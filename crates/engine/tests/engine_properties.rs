//! Property tests for the engine substrates: the pending store against a
//! naive reference model, and the stable-assignment laws.

use proptest::prelude::*;
use rrs_engine::{recolor_reconfigs, stable_assign, PendingStore, Slot};
use rrs_model::{ColorId, SnapReader, SnapWriter};

/// Colors the pending-store property test draws from.
const COLORS: u8 = 6;

/// Operations against the pending store.
#[derive(Clone, Debug)]
enum Op {
    Arrive {
        color: u8,
        count: u8,
    },
    Execute {
        color: u8,
        slots: u8,
    },
    /// Advance the clock by `skip` rounds and run the drop phase there.
    AdvanceAndDrop {
        skip: u8,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..COLORS, 1u8..6).prop_map(|(color, count)| Op::Arrive { color, count }),
        (0u8..COLORS, 1u8..4).prop_map(|(color, slots)| Op::Execute { color, slots }),
        (1u8..=5).prop_map(|skip| Op::AdvanceAndDrop { skip }),
    ]
}

/// Naive reference: an explicit bag of (color, deadline) jobs, plus the
/// store's documented `min_due` rule (lowered by arrivals, exact after
/// every drop phase that is not skipped).
struct RefModel {
    jobs: Vec<(u8, u64)>,
    coverage: usize,
    min_due: u64,
}

impl Default for RefModel {
    fn default() -> Self {
        RefModel { jobs: Vec::new(), coverage: 0, min_due: u64::MAX }
    }
}

impl RefModel {
    fn arrive(&mut self, color: u8, deadline: u64, count: u8) {
        for _ in 0..count {
            self.jobs.push((color, deadline));
        }
        self.coverage = self.coverage.max(color as usize + 1);
        self.min_due = self.min_due.min(deadline);
    }
    /// Dropped jobs per color, ascending by color.
    fn drop_due(&mut self, round: u64) -> Vec<(ColorId, u64)> {
        if round < self.min_due {
            return Vec::new();
        }
        let mut dropped = vec![0u64; COLORS as usize];
        for &(c, d) in &self.jobs {
            if d <= round {
                dropped[c as usize] += 1;
            }
        }
        self.jobs.retain(|&(_, d)| d > round);
        self.min_due = self.jobs.iter().map(|&(_, d)| d).min().unwrap_or(u64::MAX);
        (0..COLORS)
            .filter(|&c| dropped[c as usize] > 0)
            .map(|c| (ColorId(c as u32), dropped[c as usize]))
            .collect()
    }
    fn execute(&mut self, color: u8, slots: u8) -> u64 {
        let mut executed = 0;
        for _ in 0..slots {
            // Earliest-deadline job of this color.
            let best = self
                .jobs
                .iter()
                .enumerate()
                .filter(|(_, &(c, _))| c == color)
                .min_by_key(|(_, &(_, d))| d)
                .map(|(i, _)| i);
            match best {
                Some(i) => {
                    self.jobs.swap_remove(i);
                    executed += 1;
                }
                None => break,
            }
        }
        executed
    }
    fn count(&self, color: u8) -> u64 {
        self.jobs.iter().filter(|&&(c, _)| c == color).count() as u64
    }
    /// Ascending `(deadline, count)` profile of a color.
    fn profile(&self, color: u8) -> Vec<(u64, u64)> {
        let mut deadlines: Vec<u64> =
            self.jobs.iter().filter(|&&(c, _)| c == color).map(|&(_, d)| d).collect();
        deadlines.sort_unstable();
        let mut out: Vec<(u64, u64)> = Vec::new();
        for d in deadlines {
            match out.last_mut() {
                Some((last, n)) if *last == d => *n += 1,
                _ => out.push((d, 1)),
            }
        }
        out
    }
    /// The v2 snapshot section a store holding exactly these jobs writes.
    fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.put_u64(self.coverage as u64);
        let live: Vec<u8> = (0..COLORS).filter(|&c| self.count(c) > 0).collect();
        w.put_u64(live.len() as u64);
        for c in live {
            let profile = self.profile(c);
            w.put_u32(c as u32);
            w.put_u64(profile.len() as u64);
            for (d, n) in profile {
                w.put_u64(d);
                w.put_u64(n);
            }
        }
        w.put_u64(self.min_due);
        w.finish()
    }
}

fn save(store: &PendingStore) -> Vec<u8> {
    let mut w = SnapWriter::new();
    store.save_state(&mut w);
    w.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The pending store against the naive model, with a delay bound of
    /// 1–16 per color and drop phases that skip 1–5 rounds.
    #[test]
    fn pending_store_matches_reference_model(
        bounds in prop::collection::vec(1u64..=16, COLORS as usize),
        ops in prop::collection::vec(op_strategy(), 0..80),
    ) {
        let mut store = PendingStore::new();
        let mut model = RefModel::default();
        let mut round = 0u64;

        for op in ops {
            match op {
                Op::Arrive { color, count } => {
                    let deadline = round + bounds[color as usize];
                    store.arrive(ColorId(color as u32), deadline, count as u64);
                    model.arrive(color, deadline, count);
                }
                Op::Execute { color, slots } => {
                    let a = store.execute(ColorId(color as u32), slots as u64);
                    let b = model.execute(color, slots);
                    prop_assert_eq!(a, b, "execute mismatch at round {}", round);
                }
                Op::AdvanceAndDrop { skip } => {
                    round += skip as u64;
                    let mut buf = vec![(ColorId(99), 0)]; // drop_due appends
                    let a = store.drop_due(round, &mut buf);
                    let want = model.drop_due(round);
                    prop_assert_eq!(&buf[1..], want.as_slice(), "drops at round {}", round);
                    prop_assert!(
                        buf[1..].windows(2).all(|w| w[0].0 < w[1].0),
                        "drops not ascending by color at round {}", round
                    );
                    prop_assert_eq!(a, want.iter().map(|&(_, n)| n).sum::<u64>());
                }
            }
            for c in 0..COLORS {
                let id = ColorId(c as u32);
                let profile = model.profile(c);
                prop_assert_eq!(store.count(id), model.count(c), "count of {} at {}", c, round);
                prop_assert_eq!(store.is_idle(id), profile.is_empty(), "idle {} at {}", c, round);
                prop_assert_eq!(
                    store.earliest_deadline(id),
                    profile.first().map(|&(d, _)| d),
                    "earliest deadline of {} at round {}", c, round
                );
                prop_assert_eq!(store.profile(id).collect::<Vec<_>>(), profile);
            }
            let total: u64 = (0..COLORS).map(|c| model.count(c)).sum();
            prop_assert_eq!(store.total(), total);

            // The snapshot section is exactly the model's (so `min_due` is
            // exact), and save → load → save is the identity on bytes.
            let bytes = save(&store);
            prop_assert_eq!(&bytes, &model.snapshot(), "snapshot at round {}", round);
            let mut r = SnapReader::new(&bytes).expect("sealed snapshot");
            let loaded = PendingStore::load_state(&mut r).expect("store reloads");
            prop_assert_eq!(save(&loaded), bytes);
            // Equality is logical: the reloaded store has a fresh index,
            // without the live one's stale entries, yet equals it.
            prop_assert!(loaded == store, "reloaded store differs at round {}", round);
        }
    }

    #[test]
    fn stable_assign_satisfies_its_contract(
        old_raw in prop::collection::vec(prop::option::of(0u32..5), 1..10),
        desired_raw in prop::collection::vec((0u32..5, 0u64..3), 0..5),
    ) {
        let old: Vec<Slot> = old_raw.iter().map(|o| o.map(ColorId)).collect();
        // Dedup colors and cap total copies at capacity.
        let mut desired: Vec<(ColorId, u64)> = Vec::new();
        let mut total = 0u64;
        for (c, k) in desired_raw {
            if desired.iter().any(|&(dc, _)| dc == ColorId(c)) {
                continue;
            }
            let k = k.min(old.len() as u64 - total);
            desired.push((ColorId(c), k));
            total += k;
        }

        let new = stable_assign(&old, &desired);
        prop_assert_eq!(new.len(), old.len());

        // Exactly the desired multiset is placed.
        for &(c, k) in &desired {
            let placed = new.iter().filter(|&&s| s == Some(c)).count() as u64;
            prop_assert_eq!(placed, k, "color {} placement", c);
        }
        let placed_total: u64 = new.iter().filter(|s| s.is_some()).count() as u64;
        prop_assert_eq!(placed_total, desired.iter().map(|&(_, k)| k).sum::<u64>());

        // Optimality: reconfigurations equal the copies that were missing.
        let mut missing = 0u64;
        for &(c, k) in &desired {
            let have = old.iter().filter(|&&s| s == Some(c)).count() as u64;
            missing += k.saturating_sub(have);
        }
        prop_assert_eq!(recolor_reconfigs(&old, &new), missing);
    }
}
