//! Integration: the snapshot wire format. Encode→decode identity on real
//! checkpoints, hard rejection of truncated and bit-flipped files, and two
//! committed golden fixtures: `checkpoint_v2.snap` pins the current (v2,
//! sparse) encoding byte-for-byte, and `checkpoint_v1.snap` proves the old
//! dense encoding stays loadable — if encoding changes, the golden test
//! fails and `SNAP_VERSION` must be bumped with it.

use proptest::prelude::*;
use rrs::prelude::*;

/// A deterministic instance used for the golden snapshot fixtures. Changing
/// it invalidates `tests/fixtures/checkpoint_v2.snap` — regenerate via the
/// instructions in the `golden_snapshot_fixture_is_stable` test. (The v1
/// fixture was produced by a pre-v2 build from this same instance and can
/// only be preserved, not regenerated.)
fn golden_instance() -> Instance {
    let mut b = InstanceBuilder::new(2);
    let c0 = b.color(2);
    let c1 = b.color(8);
    let c2 = b.color(5);
    for blk in 0..6 {
        b.arrive(blk * 2, c0, 2);
    }
    b.arrive(0, c1, 8).arrive(8, c1, 4);
    b.arrive(1, c2, 3).arrive(7, c2, 2);
    b.build()
}

fn golden_snapshot() -> Vec<u8> {
    Simulator::new(&golden_instance(), 8)
        .checkpoint(
            &mut full_algorithm(),
            &mut NullRecorder,
            &mut Scratch::new(),
            &mut NoWatcher,
            8,
        )
        .into_snapshot()
}

#[test]
fn header_magic_and_version_are_pinned() {
    let snap = golden_snapshot();
    assert_eq!(&snap[..8], rrs::model::SNAP_MAGIC);
    assert_eq!(u32::from_le_bytes(snap[8..12].try_into().unwrap()), rrs::model::SNAP_VERSION);
    assert_eq!(rrs::model::SNAP_VERSION, 2, "format bumps must update the golden fixture");
    assert_eq!(rrs::model::SNAP_MIN_VERSION, 1, "v1 fixtures below must stay loadable");
}

#[test]
fn golden_snapshot_fixture_is_stable() {
    // Byte-for-byte pin of format v2. To regenerate after a *deliberate*
    // format bump (which must also bump SNAP_VERSION):
    //   cargo test --test snapshot_format -- --ignored regenerate
    let snap = golden_snapshot();
    let fixture =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/checkpoint_v2.snap");
    let want = std::fs::read(&fixture)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", fixture.display()));
    assert_eq!(
        snap, want,
        "snapshot encoding drifted from the committed v2 fixture; if intentional, bump \
         SNAP_VERSION and regenerate the fixture"
    );
}

#[test]
#[ignore = "writes the golden fixture; run once after a deliberate format bump"]
fn regenerate() {
    let fixture =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/checkpoint_v2.snap");
    std::fs::write(&fixture, golden_snapshot()).unwrap();
}

#[test]
fn golden_fixture_resumes_the_golden_run() {
    let inst = golden_instance();
    let want = Simulator::new(&inst, 8).run(&mut full_algorithm());
    let fixture =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/checkpoint_v2.snap");
    let snap = std::fs::read(fixture).unwrap();
    let out = Simulator::new(&inst, 8)
        .resume(
            &mut full_algorithm(),
            &mut NullRecorder,
            &mut Scratch::new(),
            &mut NoWatcher,
            &snap,
        )
        .expect("committed fixture must stay loadable");
    assert_eq!(out, want);
}

#[test]
fn v1_fixture_still_loads_and_resumes_identically() {
    // Backward compatibility: the fixture written by the last v1 build
    // (dense per-color encodings throughout) must parse under
    // `SNAP_MIN_VERSION` support, rebuild the same policy state, and
    // resume to the exact outcome of the uninterrupted run.
    let inst = golden_instance();
    let want = Simulator::new(&inst, 8).run(&mut full_algorithm());
    let fixture =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/checkpoint_v1.snap");
    let snap = std::fs::read(fixture).unwrap();
    let out = Simulator::new(&inst, 8)
        .resume(
            &mut full_algorithm(),
            &mut NullRecorder,
            &mut Scratch::new(),
            &mut NoWatcher,
            &snap,
        )
        .expect("committed v1 fixture must stay loadable");
    assert_eq!(out, want);
}

#[test]
fn v1_fixture_reencodes_to_the_v2_bytes() {
    // Migration is canonical: loading the v1 dense fixture and re-encoding
    // under the current format yields the v2 fixture byte-for-byte — the
    // sparse encodings carry exactly the same state, in the same order.
    let fixture_v1 =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/checkpoint_v1.snap");
    let snap_v1 = std::fs::read(fixture_v1).unwrap();
    let file = SnapshotFile::parse(&snap_v1).unwrap();
    let mut policy = full_algorithm();
    policy.init(file.state.ledger.delta, file.state.n_locations);
    file.load_policy(&mut policy).unwrap();
    let reencoded = encode_snapshot(&file.state, &policy);
    assert_eq!(reencoded, golden_snapshot());
}

#[test]
fn reencoding_a_parsed_snapshot_is_identity() {
    // parse → reconstruct policy → encode again: byte-identical. This is
    // the strongest statement that nothing in the file is redundant or
    // nondeterministically ordered.
    let snap = golden_snapshot();
    let file = SnapshotFile::parse(&snap).unwrap();
    let mut policy = full_algorithm();
    policy.init(file.state.ledger.delta, file.state.n_locations);
    file.load_policy(&mut policy).unwrap();
    let reencoded = encode_snapshot(&file.state, &policy);
    assert_eq!(snap, reencoded);
}

#[test]
fn truncation_at_every_length_is_rejected_cleanly() {
    let snap = golden_snapshot();
    for len in 0..snap.len() {
        let err = SnapshotFile::parse(&snap[..len])
            .err()
            .unwrap_or_else(|| panic!("truncation to {len} bytes parsed successfully"));
        // Must be a structured error with a nonempty rendering, not a panic.
        assert!(!err.to_string().is_empty());
    }
}

#[test]
fn every_single_bit_flip_is_rejected() {
    // CRC-32 detects all 1-bit errors; header corruptions die on magic or
    // version before the checksum is even computed.
    let snap = golden_snapshot();
    for byte in 0..snap.len() {
        for bit in 0..8 {
            let mut evil = snap.clone();
            evil[byte] ^= 1 << bit;
            assert!(
                SnapshotFile::parse(&evil).is_err(),
                "flip of byte {byte} bit {bit} was accepted"
            );
        }
    }
}

#[test]
fn wrong_policy_rejected_with_clear_error() {
    let snap = golden_snapshot();
    let file = SnapshotFile::parse(&snap).unwrap();
    let mut other = DeltaLru::new();
    other.init(file.state.ledger.delta, file.state.n_locations);
    let err = file.load_policy(&mut other).unwrap_err().to_string();
    assert!(err.contains("var-batch") && err.contains("dlru"), "unhelpful error: {err}");
}

#[test]
fn resume_on_wrong_configuration_is_rejected() {
    let inst = golden_instance();
    let snap = golden_snapshot();
    // Wrong location count.
    let err = Simulator::new(&inst, 4)
        .resume(
            &mut full_algorithm(),
            &mut NullRecorder,
            &mut Scratch::new(),
            &mut NoWatcher,
            &snap,
        )
        .unwrap_err()
        .to_string();
    assert!(err.contains("locations"), "{err}");
    // Wrong speed.
    let err = Simulator::new(&inst, 8)
        .with_speed(2)
        .resume(
            &mut full_algorithm(),
            &mut NullRecorder,
            &mut Scratch::new(),
            &mut NoWatcher,
            &snap,
        )
        .unwrap_err()
        .to_string();
    assert!(err.contains("speed"), "{err}");
}

/// Strategy: a small general instance plus a checkpoint round.
fn instance_and_round() -> impl Strategy<Value = (Instance, u64)> {
    (
        1u64..=4,
        prop::collection::vec(1u64..=10, 1..=4),
        prop::collection::vec((0u64..=15, 1u64..=5), 1..=24),
        1u64..=100,
    )
        .prop_map(|(delta, bounds, picks, k)| {
            let mut b = InstanceBuilder::new(delta);
            let colors: Vec<ColorId> = bounds.iter().map(|&d| b.color(d)).collect();
            for (i, (round, jobs)) in picks.into_iter().enumerate() {
                b.arrive(round, colors[i % colors.len()], jobs);
            }
            let inst = b.build();
            let k = 1 + k % inst.horizon().max(1);
            (inst, k)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn parse_reencode_identity_on_random_checkpoints(pair in instance_and_round()) {
        let (inst, k) = pair;
        let snap = Simulator::new(&inst, 8)
            .checkpoint(
                &mut full_algorithm(),
                &mut NullRecorder,
                &mut Scratch::new(),
                &mut NoWatcher,
                k,
            )
            .into_snapshot();
        let file = SnapshotFile::parse(&snap).unwrap();
        prop_assert_eq!(file.state.next_round, k);
        let mut policy = full_algorithm();
        policy.init(file.state.ledger.delta, file.state.n_locations);
        file.load_policy(&mut policy).unwrap();
        let reencoded = encode_snapshot(&file.state, &policy);
        prop_assert_eq!(snap, reencoded);
    }

    #[test]
    fn random_truncations_and_flips_never_panic(
        pair in instance_and_round(),
        cut in 0usize..=4096,
        flip in 0usize..=4096,
    ) {
        let (inst, k) = pair;
        let snap = Simulator::new(&inst, 8)
            .checkpoint(
                &mut full_algorithm(),
                &mut NullRecorder,
                &mut Scratch::new(),
                &mut NoWatcher,
                k,
            )
            .into_snapshot();
        let cut = cut % snap.len();
        prop_assert!(SnapshotFile::parse(&snap[..cut]).is_err());
        let mut evil = snap.clone();
        let at = flip % evil.len();
        evil[at] ^= 0x40;
        prop_assert!(SnapshotFile::parse(&evil).is_err());
    }
}

/// Records a policy's `ColorBook` eligible set after every
/// reconfiguration and after a snapshot load, checking each time that it
/// is ascending, agrees with `is_eligible`, and holds only touched colors
/// that have wrapped.
struct EligibleAudit<P> {
    policy: P,
    /// `(round, mini-round, eligible colors)` after each reconfiguration.
    seen: Vec<(u64, u32, Vec<ColorId>)>,
    /// The eligible colors `load_state` rebuilt, if a snapshot was loaded.
    loaded: Option<Vec<ColorId>>,
}

impl<P: Instrumented> EligibleAudit<P> {
    fn new(policy: P) -> Self {
        EligibleAudit { policy, seen: Vec::new(), loaded: None }
    }

    fn eligible(&self) -> Vec<ColorId> {
        let book = self.policy.book().expect("audited policy keeps a book");
        let set: Vec<ColorId> = book.eligible_colors().collect();
        assert!(set.windows(2).all(|w| w[0] < w[1]), "eligible colors not ascending");
        for c in (0..book.len() as u32).map(ColorId) {
            assert_eq!(book.is_eligible(c), set.binary_search(&c).is_ok(), "color {c}");
        }
        for &c in &set {
            let s = book.state(c);
            assert!(s.delay_bound > 0 && s.last_wrap.is_some(), "eligible {c} never wrapped");
        }
        set
    }

    /// Hold a resumed run to the straight run it was cut from: the set
    /// `load_state` rebuilt equals the straight run's set before the
    /// resume round, and every later reconfiguration sees the same set.
    fn assert_resumes(&self, straight: &Self) {
        let loaded = self.loaded.as_ref().expect("a snapshot was loaded");
        let Some(&(k, _, _)) = self.seen.first() else { return };
        let cut = straight.seen.iter().position(|&(r, _, _)| r >= k).expect("round in run");
        let before = cut.checked_sub(1).map_or(&[][..], |i| &straight.seen[i].2[..]);
        assert_eq!(&loaded[..], before, "eligible set rebuilt on load at round {k}");
        assert_eq!(self.seen, straight.seen[cut..], "eligible sets after resuming at round {k}");
    }
}

impl<P: Policy + Instrumented> Policy for EligibleAudit<P> {
    fn name(&self) -> &str {
        self.policy.name()
    }
    fn init(&mut self, delta: u64, n_locations: usize) {
        self.policy.init(delta, n_locations);
    }
    fn reconfigure(&mut self, obs: &Observation<'_>, out: &mut Vec<Slot>) {
        self.policy.reconfigure(obs, out);
        let set = self.eligible();
        self.seen.push((obs.round, obs.mini_round, set));
    }
}

impl<P: Snapshot + Instrumented> Snapshot for EligibleAudit<P> {
    fn save_state(&self, w: &mut SnapWriter) {
        self.policy.save_state(w);
    }
    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.policy.load_state(r)?;
        self.loaded = Some(self.eligible());
        Ok(())
    }
}

/// Resume the golden run from a committed fixture under the audit: the
/// set is rebuilt by `load_state` and kept in step for the rest of the run.
fn audited_resume_from_fixture(name: &str) {
    let inst = golden_instance();
    let mut straight = EligibleAudit::new(full_algorithm());
    let want = Simulator::new(&inst, 8).run(&mut straight);
    let fixture =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    let snap = std::fs::read(fixture).unwrap();
    let mut resumed = EligibleAudit::new(full_algorithm());
    let out = Simulator::new(&inst, 8)
        .resume(&mut resumed, &mut NullRecorder, &mut Scratch::new(), &mut NoWatcher, &snap)
        .expect("committed fixture loads");
    assert_eq!(out, want);
    assert!(!resumed.seen.is_empty(), "the fixture resumes before the horizon");
    resumed.assert_resumes(&straight);
}

#[test]
fn eligible_set_is_rebuilt_from_the_v1_fixture() {
    audited_resume_from_fixture("checkpoint_v1.snap");
}

#[test]
fn eligible_set_is_rebuilt_from_the_v2_fixture() {
    audited_resume_from_fixture("checkpoint_v2.snap");
}

/// A rate-limited instance: batches of at most `D` jobs on block
/// boundaries, as bare ΔLRU-EDF requires.
fn batched_strategy() -> impl Strategy<Value = Instance> {
    (
        1u64..=4,
        prop::collection::vec(0u32..=3, 1..=6),
        prop::collection::vec((0u64..=12, 1u64..=8), 0..=40),
    )
        .prop_map(|(delta, exps, picks)| {
            let mut b = InstanceBuilder::new(delta);
            let bounds: Vec<u64> = exps.iter().map(|&e| 1u64 << e).collect();
            let colors: Vec<ColorId> = bounds.iter().map(|&d| b.color(d)).collect();
            for (i, (block, jobs)) in picks.into_iter().enumerate() {
                let idx = i % colors.len();
                b.arrive(block * bounds[idx], colors[idx], jobs.min(bounds[idx]));
            }
            b.build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Bare ΔLRU-EDF on rate-limited traffic: the eligible set stays
    /// consistent after every round, and a run resumed from a checkpoint
    /// at an arbitrary round sees the straight run's sets.
    #[test]
    fn eligible_set_tracks_rate_limited_runs(inst in batched_strategy(), at in 0u64..=40) {
        let sim = Simulator::new(&inst, 8);
        let mut straight = EligibleAudit::new(DeltaLruEdf::new());
        let want = sim.run(&mut straight);
        let k = at.min(sim.horizon());
        let snap = sim
            .checkpoint(&mut DeltaLruEdf::new(), &mut NullRecorder, &mut Scratch::new(), &mut NoWatcher, k)
            .into_snapshot();
        let mut resumed = EligibleAudit::new(DeltaLruEdf::new());
        let out = sim
            .resume(&mut resumed, &mut NullRecorder, &mut Scratch::new(), &mut NoWatcher, &snap)
            .expect("resumes");
        prop_assert_eq!(out, want);
        resumed.assert_resumes(&straight);
    }

    /// The full stack on Zipf traffic over 16–512 colors.
    #[test]
    fn eligible_set_tracks_zipf_runs(seed in 0u64..1_000, colors in 16usize..=512, at in 0u64..=64) {
        let cfg = ZipfConfig { num_colors: colors, rounds: 64, ..ZipfConfig::default() };
        let inst = zipf_popularity(&cfg, seed);
        let sim = Simulator::new(&inst, 8);
        let mut straight = EligibleAudit::new(full_algorithm());
        let want = sim.run(&mut straight);
        let snap = sim
            .checkpoint(&mut full_algorithm(), &mut NullRecorder, &mut Scratch::new(), &mut NoWatcher, at)
            .into_snapshot();
        let mut resumed = EligibleAudit::new(full_algorithm());
        let out = sim
            .resume(&mut resumed, &mut NullRecorder, &mut Scratch::new(), &mut NoWatcher, &snap)
            .expect("resumes");
        prop_assert_eq!(out, want);
        resumed.assert_resumes(&straight);
    }
}
