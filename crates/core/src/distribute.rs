//! The *Distribute* reduction (§4.1): `[Δ|1|D_ℓ|D_ℓ]` → rate-limited
//! `[Δ|1|D_ℓ|D_ℓ]`.
//!
//! A batched instance may deliver arbitrarily large batches. Distribute
//! splits each batch of color `ℓ` into chunks of at most `D_ℓ` jobs and
//! assigns chunk `j` to a minted *sub-color* `(ℓ, j)` with the same delay
//! bound. The resulting virtual instance is rate-limited, so the inner
//! algorithm (ΔLRU-EDF in the paper) applies; whenever the inner algorithm
//! configures `(ℓ, j)` the physical schedule configures `ℓ`, and whenever it
//! executes an `(ℓ, j)` job the physical schedule executes an `ℓ` job
//! (Lemma 4.2 shows the projection never costs more).
//!
//! The wrapper maintains the virtual instance *online*: a virtual pending
//! store and virtual location assignment drive the inner policy; the
//! physical assignment is the color-projection of the virtual one. Since
//! distinct sub-colors of one physical color project to the same color, the
//! projection can only save reconfigurations, and any virtual execution is
//! physically feasible (physical pending of `ℓ` is the sum over its
//! sub-colors).

use rrs_engine::checkpoint::{get_color_table, get_slots, put_color_table, put_slots};
use rrs_engine::{Observation, PendingStore, Policy, Slot, Snapshot};
use rrs_model::{ColorId, ColorMap, ColorTable, SnapError, SnapReader, SnapWriter};

/// The Distribute wrapper around an inner policy.
#[derive(Debug)]
pub struct Distribute<P> {
    inner: P,
    vcolors: ColorTable,
    vpending: PendingStore,
    vslots: Vec<Slot>,
    vnext: Vec<Slot>,
    /// physical color → ids of its minted sub-colors (index `j` is
    /// sub-color `(ℓ, j)`).
    subs: ColorMap<Vec<ColorId>>,
    /// virtual color index → physical color.
    to_phys: Vec<ColorId>,
    varrivals: Vec<(ColorId, u64)>,
    vdropped: Vec<(ColorId, u64)>,
    /// Execution-phase grouping over the virtual assignment: dense counts
    /// plus the virtual colors touched this mini-round.
    exec_counts: ColorMap<u64>,
    exec_touched: Vec<ColorId>,
}

impl<P: Policy> Distribute<P> {
    /// Wrap an inner policy (ΔLRU-EDF for the Theorem 2 guarantee).
    pub fn new(inner: P) -> Self {
        Self {
            inner,
            vcolors: ColorTable::new(),
            vpending: PendingStore::new(),
            vslots: Vec::new(),
            vnext: Vec::new(),
            subs: ColorMap::new(),
            to_phys: Vec::new(),
            varrivals: Vec::new(),
            vdropped: Vec::new(),
            exec_counts: ColorMap::new(),
            exec_touched: Vec::new(),
        }
    }

    /// The wrapped policy.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Number of sub-colors minted so far.
    pub fn virtual_colors(&self) -> usize {
        self.vcolors.len()
    }

    /// The sub-colors minted for a physical color, in `j` order.
    pub fn sub_colors(&self, phys: ColorId) -> &[ColorId] {
        self.subs.get(phys).map(Vec::as_slice).unwrap_or(&[])
    }

    fn sub_color(&mut self, phys: ColorId, j: usize, bound: u64) -> ColorId {
        let subs = self.subs.entry(phys);
        while subs.len() <= j {
            let vc = self.vcolors.push(bound);
            subs.push(vc);
            self.to_phys.push(phys);
        }
        subs[j]
    }

    fn run_virtual_execution(&mut self) {
        // Per-sub-color queues are independent, so execution order across
        // colors cannot affect state; dense counting keeps it deterministic
        // and allocation-free once the virtual universe stops growing.
        self.exec_touched.clear();
        for &s in &self.vslots {
            if let Some(c) = s {
                let k = self.exec_counts.entry(c);
                if *k == 0 {
                    self.exec_touched.push(c);
                }
                *k += 1;
            }
        }
        for &c in &self.exec_touched {
            let q = std::mem::take(&mut self.exec_counts[c]);
            self.vpending.execute(c, q);
        }
    }
}

impl<P: crate::Footprint> crate::Footprint for Distribute<P> {
    fn footprint(&self) -> crate::StateFootprint {
        self.inner.footprint().plus(crate::StateFootprint {
            colorset_leaf_words: 0,
            colormap_live_pages: (self.subs.live_pages()
                + self.exec_counts.live_pages()
                + self.vpending.live_pages()) as u64,
        })
    }
}

impl<P: crate::Instrumented> crate::Instrumented for Distribute<P> {
    fn book(&self) -> Option<&crate::ColorBook> {
        // The wrapper keeps no timestamps of its own; the inner policy's
        // book is the §3 bookkeeping (over virtual sub-colors).
        self.inner.book()
    }

    fn metrics(&self) -> crate::AlgoMetrics {
        self.inner.metrics()
    }

    fn work(&self) -> crate::WorkCounters {
        let mut work = self.inner.work();
        work.pending_drop_visits += self.vpending.drop_visits();
        work
    }
}

impl<P: Policy> Policy for Distribute<P> {
    fn name(&self) -> &str {
        "distribute"
    }

    fn init(&mut self, delta: u64, n_locations: usize) {
        self.vcolors = ColorTable::new();
        self.vpending = PendingStore::new();
        self.vslots = vec![None; n_locations];
        self.subs = ColorMap::new();
        self.to_phys.clear();
        self.inner.init(delta, n_locations);
    }

    fn reconfigure(&mut self, obs: &Observation<'_>, out: &mut Vec<Slot>) {
        if obs.mini_round == 0 {
            // Virtual drop phase.
            self.vdropped.clear();
            self.vpending.drop_due(obs.round, &mut self.vdropped);

            // Virtual arrival phase: split each physical batch into
            // sub-color chunks of at most D_ℓ jobs (job of rank r goes to
            // sub-color ⌊r / D_ℓ⌋).
            self.varrivals.clear();
            for &(c, count) in obs.arrivals {
                let bound = obs.colors.delay_bound(c);
                debug_assert!(
                    obs.round.is_multiple_of(bound),
                    "Distribute requires batched arrivals (color {c}, round {})",
                    obs.round
                );
                let mut remaining = count;
                let mut j = 0usize;
                while remaining > 0 {
                    let chunk = remaining.min(bound);
                    let vc = self.sub_color(c, j, bound);
                    self.varrivals.push((vc, chunk));
                    self.vpending.arrive(vc, obs.round + bound, chunk);
                    remaining -= chunk;
                    j += 1;
                }
            }
            self.varrivals.sort_unstable_by_key(|&(c, _)| c);
        }

        // Inner reconfiguration on the virtual instance.
        self.vnext.clone_from(&self.vslots);
        let (arr, drp): (&rrs_engine::policy::ColorCounts, &rrs_engine::policy::ColorCounts) =
            if obs.mini_round == 0 { (&self.varrivals, &self.vdropped) } else { (&[], &[]) };
        let vobs = Observation {
            round: obs.round,
            mini_round: obs.mini_round,
            speed: obs.speed,
            delta: obs.delta,
            colors: &self.vcolors,
            arrivals: arr,
            dropped: drp,
            pending: &self.vpending,
            slots: &self.vslots,
        };
        self.inner.reconfigure(&vobs, &mut self.vnext);
        assert_eq!(self.vnext.len(), self.vslots.len(), "inner policy resized assignment");
        std::mem::swap(&mut self.vslots, &mut self.vnext);

        // Virtual execution phase, mirroring the engine's semantics.
        self.run_virtual_execution();

        // Physical projection: sub-color (ℓ, j) → ℓ.
        for (o, &v) in out.iter_mut().zip(&self.vslots) {
            *o = v.map(|vc| self.to_phys[vc.index()]);
        }
    }
}

impl<P: Snapshot> Snapshot for Distribute<P> {
    // Mutable state: the minted virtual universe (vcolors, subs, to_phys),
    // the virtual pending store and assignment, then the inner policy.
    // The arrival/drop/execution buffers are per-round scratch.
    //
    // v2 writes only physical colors with minted sub-colors, as
    // `(id, list)` entries in ascending id order; v1 wrote one (possibly
    // empty) list per covered color.
    fn save_state(&self, w: &mut SnapWriter) {
        put_color_table(w, &self.vcolors);
        self.vpending.save_state(w);
        put_slots(w, &self.vslots);
        w.put_u64(self.subs.len() as u64);
        let nonempty = self.subs.iter().filter(|(_, s)| !s.is_empty()).count();
        w.put_u64(nonempty as u64);
        for (c, subs) in self.subs.iter() {
            if subs.is_empty() {
                continue;
            }
            w.put_u32(c.0);
            w.put_u64(subs.len() as u64);
            for &vc in subs {
                w.put_u32(vc.0);
            }
        }
        w.put_u64(self.to_phys.len() as u64);
        for &phys in &self.to_phys {
            w.put_u32(phys.0);
        }
        w.put_str(self.inner.name());
        self.inner.save_state(w);
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let vcolors = get_color_table(r, "virtual color table")?;
        let vpending = PendingStore::load_state(r)?;
        let vslots = get_slots(r, "virtual slots")?;
        if vslots.len() != self.vslots.len() {
            return Err(SnapError::Invalid(format!(
                "virtual slot count {} does not match {} locations",
                vslots.len(),
                self.vslots.len()
            )));
        }
        for vc in vslots.iter().flatten() {
            if !vcolors.contains(*vc) {
                return Err(SnapError::Invalid(format!("virtual slot holds unknown color {vc}")));
            }
        }
        let n_phys = usize::try_from(r.get_u64("sub-color map size")?)
            .map_err(|_| SnapError::Invalid("sub-color map size overflows usize".into()))?;
        let mut subs: ColorMap<Vec<ColorId>> = ColorMap::new();
        subs.grow_to(n_phys);
        let mut minted = 0u64;
        if r.version() < 2 {
            for i in 0..n_phys {
                let len = r.get_u64("sub-color list length")?;
                if len == 0 {
                    continue;
                }
                let list = subs.entry(ColorId(i as u32));
                for _ in 0..len {
                    let vc = ColorId(r.get_u32("sub-color id")?);
                    if !vcolors.contains(vc) {
                        return Err(SnapError::Invalid(format!("sub-color {vc} out of range")));
                    }
                    list.push(vc);
                    minted += 1;
                }
            }
        } else {
            let n_entries = usize::try_from(r.get_u64("sub-color entry count")?)
                .ok()
                .filter(|&n| n <= n_phys)
                .ok_or_else(|| SnapError::Invalid("sub-color entry count too large".into()))?;
            let mut prev: Option<u32> = None;
            for _ in 0..n_entries {
                let id = r.get_u32("sub-color map color id")?;
                if (id as usize) >= n_phys {
                    return Err(SnapError::Invalid(format!(
                        "sub-color map id {id} beyond coverage {n_phys}"
                    )));
                }
                if let Some(p) = prev {
                    if id <= p {
                        return Err(SnapError::Invalid(format!(
                            "sub-color map ids not strictly ascending ({p} then {id})"
                        )));
                    }
                }
                prev = Some(id);
                let len = r.get_u64("sub-color list length")?;
                if len == 0 {
                    return Err(SnapError::Invalid(format!(
                        "color {id} recorded with an empty sub-color list"
                    )));
                }
                let list = subs.entry(ColorId(id));
                for _ in 0..len {
                    let vc = ColorId(r.get_u32("sub-color id")?);
                    if !vcolors.contains(vc) {
                        return Err(SnapError::Invalid(format!("sub-color {vc} out of range")));
                    }
                    list.push(vc);
                    minted += 1;
                }
            }
        }
        if minted != vcolors.len() as u64 {
            return Err(SnapError::Invalid(format!(
                "{minted} sub-colors listed but {} virtual colors minted",
                vcolors.len()
            )));
        }
        let n_virt = r.get_u64("projection table size")?;
        if n_virt != vcolors.len() as u64 {
            return Err(SnapError::Invalid(format!(
                "projection table covers {n_virt} colors but {} were minted",
                vcolors.len()
            )));
        }
        let mut to_phys = Vec::with_capacity(vcolors.len());
        for _ in 0..n_virt {
            to_phys.push(ColorId(r.get_u32("projected physical color")?));
        }
        let inner_name = r.get_str("inner policy name")?;
        if inner_name != self.inner.name() {
            return Err(SnapError::Invalid(format!(
                "snapshot wraps inner policy {inner_name:?} but this wrapper holds {:?}",
                self.inner.name()
            )));
        }
        self.inner.load_state(r)?;
        self.vcolors = vcolors;
        self.vpending = vpending;
        self.vslots = vslots;
        self.subs = subs;
        self.to_phys = to_phys;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dlru_edf::DeltaLruEdf;
    use crate::edf::Edf;
    use rrs_engine::Simulator;
    use rrs_model::InstanceBuilder;

    #[test]
    fn oversize_batch_is_split_into_sub_colors() {
        // One color, bound 2, a batch of 5 jobs -> sub-colors (ℓ,0..2) with
        // chunks 2, 2, 1.
        let mut b = InstanceBuilder::new(1);
        let c = b.color(2);
        b.arrive(0, c, 5);
        let inst = b.build();
        let mut p = Distribute::new(Edf::new());
        Simulator::new(&inst, 4).run(&mut p);
        assert_eq!(p.virtual_colors(), 3);
        assert_eq!(p.sub_colors(c).len(), 3);
    }

    #[test]
    fn rate_limited_input_passes_through_with_one_sub_color() {
        let mut b = InstanceBuilder::new(1);
        let c = b.color(4);
        b.arrive(0, c, 4).arrive(4, c, 3);
        let inst = b.build();
        let mut p = Distribute::new(Edf::new());
        let out = Simulator::new(&inst, 2).run(&mut p);
        assert_eq!(p.virtual_colors(), 1);
        assert_eq!(out.dropped, 0);
    }

    #[test]
    fn physical_cost_at_most_sub_color_count_times_reconfig() {
        // A large batch of one physical color: the projection merges all
        // sub-color configurations onto the same physical color, so a
        // location switching between sub-colors of the same color is free.
        let mut b = InstanceBuilder::new(3);
        let c = b.color(4);
        b.arrive(0, c, 16); // 4 sub-colors
        b.arrive(4, c, 16);
        let inst = b.build();
        let mut p = Distribute::new(DeltaLruEdf::new());
        let out = Simulator::new(&inst, 8).run(&mut p);
        // All locations only ever hold (projections of) color c: physical
        // reconfigs are at most one per location.
        assert!(out.cost.reconfigs <= 8, "got {}", out.cost.reconfigs);
    }

    #[test]
    fn executes_as_much_as_unsplit_would() {
        // Sanity: splitting must not reduce throughput below capacity.
        let mut b = InstanceBuilder::new(1);
        let c = b.color(4);
        b.arrive(0, c, 8);
        let inst = b.build();
        let mut p = Distribute::new(DeltaLruEdf::new());
        let out = Simulator::new(&inst, 4).run(&mut p);
        // 4 locations x 4 rounds = 16 slots; 8 jobs, all executable.
        assert_eq!(out.dropped, 0);
    }

    #[test]
    fn empty_rounds_are_harmless() {
        let mut b = InstanceBuilder::new(1);
        let c = b.color(8);
        b.arrive(8, c, 2);
        let inst = b.build();
        let mut p = Distribute::new(Edf::new());
        let out = Simulator::new(&inst, 2).run(&mut p);
        assert!(out.conserved());
        assert_eq!(out.dropped, 0);
    }
}
