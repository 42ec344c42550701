//! DRAM timing model: channels, ranks, banks, open-row policy, FR-FCFS-style
//! row-hit preference.
//!
//! The model answers one question for the system simulator: *when does a
//! memory request to block `B`, issued at cycle `t`, complete?* It tracks
//! per-bank open rows and busy windows and a per-channel data bus, charging
//! the Table I timing parameters (tRCD / tCAS / tRP / burst). Requests are
//! served in arrival order per bank, but row-buffer hits skip the
//! activate/precharge phases exactly as an FR-FCFS scheduler's row-hit-first
//! policy would produce for the steady state the trace-driven engine models.
//!
//! # State layout
//!
//! Bank state lives in dense, index-addressed tables rather than nested
//! per-channel vectors (DESIGN.md §6): one flat slab per field, indexed by
//! `channel * banks_per_channel + bank`. The hot fields the per-access path
//! reads and writes (`open_row`, `busy_until`) are split from the cold
//! per-bank statistics (structure-of-arrays), so an access touches two
//! small hot arrays instead of pulling whole bank structs through the
//! cache. Address decode uses shift/mask arithmetic whenever the geometry
//! is power-of-two (the default and every Table I configuration), falling
//! back to div/mod otherwise — a differential test pins both paths to the
//! arithmetic definition.
//!
//! # Event-driven state transitions
//!
//! Every access schedules its deferred state transitions — a bank-ready
//! when the bank's array frees (`busy_until`), and a bus-drain (reads) or
//! posted-writeback retire (writes) when the burst leaves the channel's
//! data bus (`bus_free`) — on an internal *slot calendar* (DESIGN.md
//! §11): one slot per bank and one per channel, exploiting the model's
//! single-outstanding-transition invariant (a same-resource follow-up
//! strictly raises the slab horizon, so at most one transition per
//! resource is ever live). Scheduling is a store; a follow-up that lands
//! before the old transition fires *supersedes* it in place (counted in
//! `events_stale`); and the only ordered question the runner ever asks —
//! "is anything due?" — is answered by a cached lower bound on the
//! earliest live slot, so the per-scheduling-point
//! [`DramModel::advance_to`] is a two-word compare in the common case.
//! Idle-cycle accounting: the span between a bank's last array completion
//! and its next request is measured in `idle_skipped_cycles`; nothing is
//! skipped, the counter only accounts. (A first cut kept these events in a binary
//! heap; four heap operations per access took `dram_access` from 7.7 ns
//! to 104 ns and regressed the figure campaign 1.7x, which is what forced
//! the dense-slot representation.) The timing slabs stay authoritative,
//! which is what keeps completion times bit-identical to the pre-event
//! model.
//!
//! # Examples
//!
//! ```
//! use ivl_dram::DramModel;
//! use ivl_sim_core::{addr::BlockAddr, config::SystemConfig};
//!
//! let cfg = SystemConfig::default().dram;
//! let mut dram = DramModel::new(&cfg);
//! let done = dram.access(0, BlockAddr::new(0), false);
//! // Block 2 sits on the same channel and row as block 0 → row-buffer hit.
//! let done2 = dram.access(done, BlockAddr::new(2), false);
//! assert!(done2 - done < done, "row hit is cheaper than a cold access");
//! ```

use ivl_sim_core::addr::{BlockAddr, BLOCK_BYTES};
use ivl_sim_core::config::DramConfig;
use ivl_sim_core::obs::registry::StatsRegistry;
use ivl_sim_core::obs::trace::{EventKind, RowResult};
use ivl_sim_core::obs::Obs;
use ivl_sim_core::stats::Counter;
use ivl_sim_core::Cycle;

/// Decoded DRAM coordinates of a block address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramCoord {
    /// Channel index.
    pub channel: usize,
    /// Bank index within the channel (rank-flattened).
    pub bank: usize,
    /// Row within the bank.
    pub row: u64,
}

/// Sentinel in the `open_row` table for "no row open" (all banks precharge
/// far below 2^64 rows: a 32 GiB module has fewer than 2^26).
const NO_OPEN_ROW: u64 = u64::MAX;

/// Sentinel in the deferred-transition slot tables for "no transition
/// pending on this resource".
const EVENT_NONE: Cycle = Cycle::MAX;

/// Tag bit marking a *fired* bank slot: the transition retired (via an
/// [`DramModel::advance_to`] sweep) and the low bits now carry the cycle
/// the bank's array went idle, awaiting the next request to measure the
/// window. Simulated cycles stay far below 2^63, so the bit is free.
const FIRED_BIT: Cycle = 1 << 63;

/// Row-buffer outcome of a single access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowOutcome {
    /// The target row was already open.
    Hit,
    /// The bank was idle (no open row): activate only.
    Empty,
    /// A different row was open: precharge + activate.
    Conflict,
}

/// Aggregate DRAM statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct DramStats {
    /// Total read requests.
    pub reads: Counter,
    /// Total write requests.
    pub writes: Counter,
    /// Row-buffer hits.
    pub row_hits: Counter,
    /// Row-buffer conflicts.
    pub row_conflicts: Counter,
    /// Bank-idle cycles crossed in one jump: the sum over requests of the
    /// span between the target bank's last array completion (its fresh
    /// bank-ready event) and the request's issue cycle. A per-cycle
    /// stepper would have walked every one of these.
    pub idle_skipped_cycles: Counter,
    /// Deferred transitions superseded before they fired: a follow-up
    /// request re-busied the bank / re-occupied the bus while its
    /// predecessor's transition was still pending in the slot calendar.
    pub events_stale: Counter,
}

/// Precomputed address-decode constants: shift/mask when every geometry
/// factor is a power of two, div/mod fallback otherwise.
#[derive(Debug, Clone, Copy)]
struct Decode {
    /// All of channels / blocks-per-row / banks-per-channel are powers of
    /// two, so `coord` reduces to shifts and masks.
    pow2: bool,
    ch_mask: u64,
    ch_shift: u32,
    row_shift: u32,
    bank_mask: u64,
    bank_shift: u32,
}

/// The DRAM timing model.
#[derive(Debug, Clone)]
pub struct DramModel {
    cfg: DramConfig,
    banks_per_channel: usize,
    blocks_per_row: u64,
    decode: Decode,
    /// Hot per-bank state, flat-indexed by `channel * banks_per_channel +
    /// bank`: the currently open row ([`NO_OPEN_ROW`] when precharged).
    open_row: Box<[u64]>,
    /// Hot per-bank state: cycle the bank's array becomes free.
    busy_until: Box<[Cycle]>,
    /// Per-channel data-bus availability.
    bus_free: Box<[Cycle]>,
    /// Slot calendar, bank half: the deferred bank-ready transition per
    /// bank ([`EVENT_NONE`] = none). While pending a slot always equals
    /// the bank's `busy_until` — both are written together — so a
    /// same-bank follow-up supersedes it in place instead of queueing
    /// behind it; once fired by a sweep the slot carries
    /// [`FIRED_BIT`]` | `*idle-since cycle* until the next request to the
    /// bank consumes the measured window. One word per bank holds the
    /// whole lifecycle, so the access path touches a single cache line
    /// where a heap would have paid two sift passes.
    bank_event: Box<[Cycle]>,
    /// Slot calendar, channel half: the pending bus-drain (or posted
    /// writeback retire) transition per channel ([`EVENT_NONE`] = none;
    /// no fired state — a drained bus opens no measured window).
    bus_event: Box<[Cycle]>,
    /// Pending (unfired, unsuperseded) slots across both halves — the
    /// model's contribution to the runner's `cal.occupancy` gauge.
    pending: usize,
    /// Lower bound on the earliest pending transition ([`EVENT_NONE`]
    /// when none). A supersede can leave it early — the next
    /// [`advance_to`] then sweeps, fires nothing, and re-tightens it —
    /// but never late, so "nothing due" is decided by one compare.
    ///
    /// [`advance_to`]: DramModel::advance_to
    next_expiry: Cycle,
    /// Cold per-bank statistics (same flat indexing as the hot tables).
    bank_row_hits: Box<[u64]>,
    bank_row_conflicts: Box<[u64]>,
    stats: DramStats,
    obs: Obs,
    /// Cached tracer gate: `access` branches on a plain bool instead of
    /// re-querying the tracer handle per request.
    trace_on: bool,
    /// Cached timeline gate, same purpose.
    tl_on: bool,
}

impl DramModel {
    /// Creates a model from a [`DramConfig`].
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero channels/ranks/banks or a row
    /// smaller than a block.
    pub fn new(cfg: &DramConfig) -> Self {
        assert!(cfg.channels > 0 && cfg.ranks_per_channel > 0 && cfg.banks_per_rank > 0);
        assert!(cfg.row_bytes >= BLOCK_BYTES);
        let banks_per_channel = cfg.ranks_per_channel * cfg.banks_per_rank;
        let blocks_per_row = (cfg.row_bytes / BLOCK_BYTES) as u64;
        let total_banks = cfg.channels * banks_per_channel;
        let pow2 = cfg.channels.is_power_of_two()
            && blocks_per_row.is_power_of_two()
            && banks_per_channel.is_power_of_two();
        DramModel {
            cfg: *cfg,
            banks_per_channel,
            blocks_per_row,
            decode: Decode {
                pow2,
                ch_mask: cfg.channels as u64 - 1,
                ch_shift: cfg.channels.trailing_zeros(),
                row_shift: blocks_per_row.trailing_zeros(),
                bank_mask: banks_per_channel as u64 - 1,
                bank_shift: banks_per_channel.trailing_zeros(),
            },
            open_row: vec![NO_OPEN_ROW; total_banks].into_boxed_slice(),
            busy_until: vec![0; total_banks].into_boxed_slice(),
            bus_free: vec![0; cfg.channels].into_boxed_slice(),
            bank_event: vec![EVENT_NONE; total_banks].into_boxed_slice(),
            bus_event: vec![EVENT_NONE; cfg.channels].into_boxed_slice(),
            pending: 0,
            next_expiry: EVENT_NONE,
            bank_row_hits: vec![0; total_banks].into_boxed_slice(),
            bank_row_conflicts: vec![0; total_banks].into_boxed_slice(),
            stats: DramStats::default(),
            obs: Obs::disabled(),
            trace_on: false,
            tl_on: false,
        }
    }

    /// Attaches an observability handle; the model emits a `DramAccess`
    /// trace event per request while the tracer is enabled, and per-window
    /// `dram.reads`/`dram.writes`/`dram.busy_cycles` counters plus a
    /// `dram.latency` histogram while the timeline is.
    pub fn set_obs(&mut self, obs: Obs) {
        self.trace_on = obs.tracer.enabled();
        self.tl_on = obs.timeline.enabled();
        self.obs = obs;
    }

    /// Maps a block address to its DRAM coordinates (block-interleaved
    /// channels, then row-interleaved banks).
    #[inline]
    pub fn coord(&self, block: BlockAddr) -> DramCoord {
        let idx = block.index();
        let d = self.decode;
        if d.pow2 {
            let channel = (idx & d.ch_mask) as usize;
            let row_global = idx >> d.ch_shift >> d.row_shift;
            DramCoord {
                channel,
                bank: (row_global & d.bank_mask) as usize,
                row: row_global >> d.bank_shift,
            }
        } else {
            let channel = (idx % self.cfg.channels as u64) as usize;
            let per_channel = idx / self.cfg.channels as u64;
            let row_global = per_channel / self.blocks_per_row;
            DramCoord {
                channel,
                bank: (row_global % self.banks_per_channel as u64) as usize,
                row: row_global / self.banks_per_channel as u64,
            }
        }
    }

    /// Fires every deferred transition due at or before `cycle`: a due
    /// bank slot opens the bank's measured idle window (the array is idle
    /// from the slot's timestamp on); a due channel slot just retires.
    /// One dense sweep handles every due slot at once and re-tightens
    /// `next_expiry` to the exact minimum of what remains — superseded
    /// entries never exist here (they are overwritten in place at
    /// schedule time), so everything swept up is fresh by construction.
    #[cold]
    fn fire_due(&mut self, cycle: Cycle) {
        let mut min = EVENT_NONE;
        for slot in self.bank_event.iter_mut() {
            let at = *slot;
            if at >= FIRED_BIT {
                // EVENT_NONE or an already-fired slot awaiting its bank's
                // next request — nothing pending here.
                continue;
            }
            if at <= cycle {
                *slot = FIRED_BIT | at;
                self.pending -= 1;
            } else if at < min {
                min = at;
            }
        }
        for slot in self.bus_event.iter_mut() {
            let at = *slot;
            if at == EVENT_NONE {
                continue;
            }
            if at <= cycle {
                *slot = EVENT_NONE;
                self.pending -= 1;
            } else if at < min {
                min = at;
            }
        }
        self.next_expiry = min;
    }

    /// Advances the model's event clock to `cycle` without issuing a
    /// request: the runner calls this at every scheduling point, so idle
    /// windows are crossed in one jump. The common case — nothing due —
    /// is a single compare against the cached expiry bound.
    #[inline]
    pub fn advance_to(&mut self, cycle: Cycle) {
        if cycle >= self.next_expiry {
            self.fire_due(cycle);
        }
    }

    /// Deferred transitions currently pending (the model's contribution
    /// to the runner's `cal.occupancy` gauge).
    #[inline]
    pub fn pending_events(&self) -> usize {
        self.pending
    }

    /// Timing core of one request: charges the bank/bus state machines,
    /// closes the bank's idle window, and schedules the deferred events
    /// this request creates. Returns `(done, outcome, busy_added,
    /// idle_skipped)`; the caller owns event draining and obs emission.
    #[inline]
    fn leg_timing(
        &mut self,
        now: Cycle,
        c: DramCoord,
        is_write: bool,
    ) -> (Cycle, RowOutcome, Cycle, Cycle) {
        let bi = c.channel * self.banks_per_channel + c.bank;
        if is_write {
            self.stats.writes.inc();
        } else {
            self.stats.reads.inc();
        }

        // This request resolves whatever its bank's slot holds, in one
        // load. The reschedule below always installs a fresh transition,
        // so only the *old* state decides the pending delta and the idle
        // accounting. A measured window can be empty: a request issued
        // behind the bank's horizon never saw the bank idle. The window
        // may have been opened by a runner sweep (slot tagged
        // [`FIRED_BIT`]) or still sit in an unfired due slot — both carry
        // the same timestamp (the bank's old `busy_until`), so the
        // measured span is identical no matter where the runner placed
        // its `advance_to` calls.
        let slot = self.bank_event[bi];
        let mut skipped = 0;
        if slot >= FIRED_BIT {
            // Nothing pending: first touch ([`EVENT_NONE`]) or a fired
            // slot carrying the cycle the bank's array went idle.
            if slot != EVENT_NONE {
                skipped = now.saturating_sub(slot & !FIRED_BIT);
                self.stats.idle_skipped_cycles.add(skipped);
            }
            self.pending += 1;
        } else if slot <= now {
            // Due but never swept: fire the transition here, in place.
            // The reschedule replaces it, so `pending` is unchanged.
            skipped = now - slot;
            self.stats.idle_skipped_cycles.add(skipped);
        } else {
            // Still pending: this request beat the transition to the
            // punch — the reschedule supersedes it in place.
            self.stats.events_stale.inc();
        }
        // The channel's slot resolves the same way, minus idle
        // accounting: a due drain just retires (replaced below, net 0).
        let bus_slot = self.bus_event[c.channel];
        if bus_slot == EVENT_NONE {
            self.pending += 1;
        } else if bus_slot > now {
            self.stats.events_stale.inc();
        }

        // Bank-level serialization only: array accesses in different banks
        // overlap, and the shared data bus is occupied just for the burst.
        let start = now.max(self.busy_until[bi]);

        let open = self.open_row[bi];
        let (outcome, array_latency) = if open == c.row {
            (RowOutcome::Hit, self.cfg.t_cas)
        } else if open != NO_OPEN_ROW {
            (
                RowOutcome::Conflict,
                self.cfg.t_rp + self.cfg.t_rcd + self.cfg.t_cas,
            )
        } else {
            (RowOutcome::Empty, self.cfg.t_rcd + self.cfg.t_cas)
        };
        match outcome {
            RowOutcome::Hit => {
                self.stats.row_hits.inc();
                self.bank_row_hits[bi] = self.bank_row_hits[bi].saturating_add(1);
            }
            RowOutcome::Conflict => {
                self.stats.row_conflicts.inc();
                self.bank_row_conflicts[bi] = self.bank_row_conflicts[bi].saturating_add(1);
            }
            RowOutcome::Empty => {}
        }

        let data_ready = start + array_latency;
        // The burst waits for the channel's data bus, which frees at burst
        // granularity (pipelined with other banks' array accesses).
        let burst_start = data_ready.max(self.bus_free[c.channel]);
        let done = burst_start + self.cfg.t_burst;
        self.open_row[bi] = c.row;
        self.busy_until[bi] = data_ready;
        self.bus_free[c.channel] = done;

        // Reschedule: the array frees at `data_ready`, the bus drains at
        // `done` (a posted write retires there). Both are in the strict
        // future of `now`, so a batch of same-cycle legs never fires its
        // own slots. The pending/stale deltas were settled above against
        // the slots' *old* contents, so these stores are unconditional.
        self.bank_event[bi] = data_ready;
        self.bus_event[c.channel] = done;
        if data_ready < self.next_expiry {
            self.next_expiry = data_ready;
        }

        (done, outcome, data_ready - start, skipped)
    }

    /// Issues one request at cycle `now`; returns its completion cycle.
    pub fn access(&mut self, now: Cycle, block: BlockAddr, is_write: bool) -> Cycle {
        let c = self.coord(block);
        let (done, outcome, busy_added, skipped) = self.leg_timing(now, c, is_write);

        if self.tl_on {
            let tl = &self.obs.timeline;
            tl.count(
                if is_write {
                    "dram.writes"
                } else {
                    "dram.reads"
                },
                now,
                1,
            );
            // Bank occupancy: array-busy cycles this access added.
            tl.count("dram.busy_cycles", now, busy_added);
            tl.observe("dram.latency", now, done - now);
            if skipped > 0 {
                tl.count("dram.idle_skipped_cycles", now, skipped);
            }
        }
        if self.trace_on {
            self.obs.tracer.emit(
                now,
                "dram",
                None,
                None,
                EventKind::DramAccess {
                    channel: c.channel as u8,
                    bank: c.bank as u8,
                    row: match outcome {
                        RowOutcome::Hit => RowResult::Hit,
                        RowOutcome::Empty => RowResult::Empty,
                        RowOutcome::Conflict => RowResult::Conflict,
                    },
                    is_write,
                    latency: done - now,
                },
            );
        }
        done
    }

    /// Issues the independent sibling legs of one integrity walk — all at
    /// the same cycle, in slice order — as a single calendar-mediated
    /// batch: the address-decode pass runs tight over the slice and the
    /// timeline gate is tested once for the whole batch instead of once
    /// per leg. Completion cycles land in `done_out` (cleared first),
    /// leg-for-leg.
    ///
    /// Equivalent, leg for leg, to calling [`access`](Self::access) in the
    /// same order at the same `now`: every deferred event a leg schedules
    /// lands strictly after `now`, so sibling legs can never observe each
    /// other through the calendar, only through the timing slabs — exactly
    /// as the serial calls would.
    pub fn access_many(
        &mut self,
        now: Cycle,
        legs: &[(BlockAddr, bool)],
        done_out: &mut Vec<Cycle>,
    ) {
        done_out.clear();
        let (mut reads, mut writes) = (0u64, 0u64);
        let (mut busy, mut skipped) = (0u64, 0u64);
        for &(block, is_write) in legs {
            let c = self.coord(block);
            let (done, outcome, busy_added, skip) = self.leg_timing(now, c, is_write);
            if is_write {
                writes += 1;
            } else {
                reads += 1;
            }
            busy += busy_added;
            skipped += skip;
            if self.tl_on {
                // Latency stays a per-leg observation (each leg has its
                // own); the counters batch below (same window sums).
                self.obs.timeline.observe("dram.latency", now, done - now);
            }
            if self.trace_on {
                self.obs.tracer.emit(
                    now,
                    "dram",
                    None,
                    None,
                    EventKind::DramAccess {
                        channel: c.channel as u8,
                        bank: c.bank as u8,
                        row: match outcome {
                            RowOutcome::Hit => RowResult::Hit,
                            RowOutcome::Empty => RowResult::Empty,
                            RowOutcome::Conflict => RowResult::Conflict,
                        },
                        is_write,
                        latency: done - now,
                    },
                );
            }
            done_out.push(done);
        }
        if self.tl_on && !legs.is_empty() {
            let tl = &self.obs.timeline;
            if reads > 0 {
                tl.count("dram.reads", now, reads);
            }
            if writes > 0 {
                tl.count("dram.writes", now, writes);
            }
            tl.count("dram.busy_cycles", now, busy);
            if skipped > 0 {
                tl.count("dram.idle_skipped_cycles", now, skipped);
            }
        }
    }

    /// Convenience: latency (cycles) of a request issued at `now`.
    pub fn access_latency(&mut self, now: Cycle, block: BlockAddr, is_write: bool) -> Cycle {
        self.access(now, block, is_write) - now
    }

    /// Snapshot of statistics.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// Exports aggregate and per-bank statistics under `prefix` (e.g.
    /// `dram.reads`, `dram.ch0.bank3.row_conflicts`). Banks that saw no
    /// row-buffer activity are skipped to keep the registry readable.
    pub fn export_stats(&self, prefix: &str, reg: &mut StatsRegistry) {
        reg.set_counter(&format!("{prefix}.reads"), self.stats.reads.get());
        reg.set_counter(&format!("{prefix}.writes"), self.stats.writes.get());
        reg.set_counter(&format!("{prefix}.row_hits"), self.stats.row_hits.get());
        reg.set_counter(
            &format!("{prefix}.row_conflicts"),
            self.stats.row_conflicts.get(),
        );
        reg.set_counter(
            &format!("{prefix}.idle_skipped_cycles"),
            self.stats.idle_skipped_cycles.get(),
        );
        reg.set_counter(
            &format!("{prefix}.events_stale"),
            self.stats.events_stale.get(),
        );
        for ch in 0..self.cfg.channels {
            for b in 0..self.banks_per_channel {
                let bi = ch * self.banks_per_channel + b;
                let (hits, conflicts) = (self.bank_row_hits[bi], self.bank_row_conflicts[bi]);
                if hits == 0 && conflicts == 0 {
                    continue;
                }
                reg.set_counter(&format!("{prefix}.ch{ch}.bank{b}.row_hits"), hits);
                reg.set_counter(&format!("{prefix}.ch{ch}.bank{b}.row_conflicts"), conflicts);
            }
        }
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivl_sim_core::config::SystemConfig;

    fn model() -> DramModel {
        DramModel::new(&SystemConfig::default().dram)
    }

    #[test]
    fn row_hit_is_cheaper_than_conflict() {
        let mut d = model();
        let cfg = *d.config();
        let blocks_per_row = (cfg.row_bytes / BLOCK_BYTES) as u64;
        let b0 = BlockAddr::new(0);
        // Same channel (stride = channels), same bank, different row:
        let other_row = BlockAddr::new(
            blocks_per_row
                * cfg.channels as u64
                * (cfg.ranks_per_channel * cfg.banks_per_rank) as u64,
        );
        assert_eq!(d.coord(b0).channel, d.coord(other_row).channel);
        assert_eq!(d.coord(b0).bank, d.coord(other_row).bank);
        assert_ne!(d.coord(b0).row, d.coord(other_row).row);

        let t_first = d.access_latency(0, b0, false); // empty
        let t_hit = d.access_latency(10_000, b0, false); // hit
        let t_conflict = d.access_latency(20_000, other_row, false); // conflict
        assert!(t_hit < t_first);
        assert!(t_first < t_conflict);
        assert_eq!(t_hit, cfg.t_cas + cfg.t_burst);
        assert_eq!(t_conflict, cfg.t_rp + cfg.t_rcd + cfg.t_cas + cfg.t_burst);
    }

    #[test]
    fn consecutive_blocks_interleave_channels() {
        let d = model();
        let c0 = d.coord(BlockAddr::new(0));
        let c1 = d.coord(BlockAddr::new(1));
        assert_ne!(c0.channel, c1.channel);
    }

    #[test]
    fn bus_serializes_bursts_only() {
        let mut d = model();
        let cfg = *d.config();
        let b = BlockAddr::new(0);
        let done1 = d.access(0, b, false);
        // A same-bank follow-up serializes on the bank (array) and then on
        // the data bus for one burst.
        let done2 = d.access(0, b, false);
        assert!(done2 >= done1 + cfg.t_burst);
        // A different-bank access on the same channel overlaps its array
        // access with the earlier bursts and pays at most one extra burst.
        let banks = (d.config().ranks_per_channel * d.config().banks_per_rank) as u64;
        let other_bank = BlockAddr::new((cfg.row_bytes / BLOCK_BYTES) as u64 * cfg.channels as u64);
        assert_ne!(d.coord(b).bank, d.coord(other_bank).bank);
        let _ = banks;
        let done3 = d.access(0, other_bank, false);
        assert!(done3 <= done2 + cfg.t_burst + cfg.t_rcd + cfg.t_cas);
    }

    #[test]
    fn different_channels_proceed_in_parallel() {
        let mut d = model();
        let done_a = d.access(0, BlockAddr::new(0), false);
        let done_b = d.access(0, BlockAddr::new(1), false);
        // Same issue cycle, disjoint channels: identical completion times.
        assert_eq!(done_a, done_b);
    }

    #[test]
    fn stats_track_outcomes() {
        let mut d = model();
        let b = BlockAddr::new(0);
        d.access(0, b, false);
        d.access(1000, b, true);
        let s = d.stats();
        assert_eq!(s.reads.get(), 1);
        assert_eq!(s.writes.get(), 1);
        assert_eq!(s.row_hits.get(), 1);
    }

    #[test]
    fn export_reconciles_with_aggregate_stats_and_emits_trace() {
        use ivl_sim_core::obs::trace::TraceFilter;
        use ivl_sim_core::obs::{Obs, Tracer};

        let mut d = model();
        let mut obs = Obs::disabled();
        obs.tracer = Tracer::bounded(64, TraceFilter::all());
        d.set_obs(obs.clone());

        let b = BlockAddr::new(0);
        d.access(0, b, false);
        d.access(1000, b, true); // row hit

        let mut reg = StatsRegistry::new();
        d.export_stats("dram", &mut reg);
        assert_eq!(reg.counter("dram.reads"), Some(d.stats().reads.get()));
        assert_eq!(reg.counter("dram.row_hits"), Some(1));
        // Per-bank counters sum to the aggregate.
        let bank_hits: u64 = reg
            .iter()
            .filter(|(p, _)| p.starts_with("dram.ch") && p.ends_with("row_hits"))
            .filter_map(|(p, _)| reg.counter(p))
            .sum();
        assert_eq!(bank_hits, d.stats().row_hits.get());

        let records = obs.tracer.sorted_records();
        assert_eq!(records.len(), 2);
        assert!(matches!(
            records[1].kind,
            EventKind::DramAccess {
                row: RowResult::Hit,
                is_write: true,
                ..
            }
        ));
    }

    #[test]
    fn access_latency_equals_completion_minus_issue() {
        let mut d = model();
        let b = BlockAddr::new(0);
        let lat = d.access_latency(100, b, false);
        let mut d2 = model();
        let done = d2.access(100, b, false);
        assert_eq!(lat, done - 100);
    }

    #[test]
    fn row_conflicts_are_counted() {
        let mut d = model();
        let cfg = *d.config();
        let blocks_per_row = (cfg.row_bytes / BLOCK_BYTES) as u64;
        let stride = blocks_per_row
            * cfg.channels as u64
            * (cfg.ranks_per_channel * cfg.banks_per_rank) as u64;
        d.access(0, BlockAddr::new(0), false);
        d.access(10_000, BlockAddr::new(stride), false); // same bank, new row
        d.access(20_000, BlockAddr::new(0), false); // back again
        assert_eq!(d.stats().row_conflicts.get(), 2);
        assert_eq!(d.stats().row_hits.get(), 0);
    }

    #[test]
    fn idle_banks_do_not_delay_late_requests() {
        let mut d = model();
        let lat_now = d.access_latency(1_000_000, BlockAddr::new(0), false);
        let cfg = *d.config();
        assert_eq!(lat_now, cfg.t_rcd + cfg.t_cas + cfg.t_burst);
    }

    #[test]
    fn coord_is_stable_and_in_range() {
        let d = model();
        for i in 0..10_000u64 {
            let c = d.coord(BlockAddr::new(i * 97));
            assert!(c.channel < d.config().channels);
            assert!(c.bank < d.banks_per_channel);
        }
    }

    /// The arithmetic definition of the address mapping, as the pre-SoA
    /// implementation computed it with div/mod on every access.
    fn reference_coord(cfg: &DramConfig, idx: u64) -> DramCoord {
        let blocks_per_row = (cfg.row_bytes / BLOCK_BYTES) as u64;
        let banks_per_channel = (cfg.ranks_per_channel * cfg.banks_per_rank) as u64;
        let channel = (idx % cfg.channels as u64) as usize;
        let per_channel = idx / cfg.channels as u64;
        let row_global = per_channel / blocks_per_row;
        DramCoord {
            channel,
            bank: (row_global % banks_per_channel) as usize,
            row: row_global / banks_per_channel,
        }
    }

    #[test]
    fn shift_mask_coord_matches_divmod_reference() {
        let d = model();
        assert!(d.decode.pow2, "default geometry must take the fast path");
        let cfg = *d.config();
        for i in 0..200_000u64 {
            let idx = i.wrapping_mul(0x9E37_79B9).wrapping_add(i);
            assert_eq!(d.coord(BlockAddr::new(idx)), reference_coord(&cfg, idx));
        }
    }

    #[test]
    fn non_power_of_two_geometry_falls_back_to_divmod() {
        let mut cfg = SystemConfig::default().dram;
        cfg.channels = 3;
        cfg.ranks_per_channel = 1;
        cfg.banks_per_rank = 5;
        let d = DramModel::new(&cfg);
        assert!(!d.decode.pow2);
        for i in 0..50_000u64 {
            let idx = i.wrapping_mul(131).wrapping_add(7);
            let c = d.coord(BlockAddr::new(idx));
            assert_eq!(c, reference_coord(&cfg, idx));
            assert!(c.channel < 3 && c.bank < 5);
        }
        // Timing math is geometry-independent: an empty-bank access still
        // charges activate + column + burst.
        let mut d = d;
        assert_eq!(
            d.access_latency(0, BlockAddr::new(0), false),
            cfg.t_rcd + cfg.t_cas + cfg.t_burst
        );
    }

    #[test]
    fn idle_windows_are_skipped_and_measured() {
        let mut d = model();
        let cfg = *d.config();
        let b = BlockAddr::new(0);
        let done = d.access(0, b, false);
        // Two deferred events per access: bank-ready + bus-drain.
        assert_eq!(d.pending_events(), 2);
        // The runner jumps simulated time: the drain is one call, and the
        // bank's idle window is measured when the next request lands.
        d.advance_to(done);
        assert_eq!(d.pending_events(), 0);
        let idle_from = cfg.t_rcd + cfg.t_cas; // the bank's busy_until
        d.access(1_000_000, b, false);
        assert_eq!(d.stats().idle_skipped_cycles.get(), 1_000_000 - idle_from);
        // Timing is unchanged by the bookkeeping (slabs stay
        // authoritative): pinned by idle_banks_do_not_delay_late_requests.
    }

    #[test]
    fn idle_skip_is_invariant_to_advance_placement() {
        // Whether the runner drained eagerly or the access drains lazily
        // on entry, the measured idle window is identical — the property
        // that makes the counter deterministic across engines.
        let b = BlockAddr::new(0);
        let mut eager = model();
        let done = eager.access(0, b, false);
        eager.advance_to(done + 123);
        eager.access(500_000, b, false);

        let mut lazy = model();
        lazy.access(0, b, false);
        lazy.access(500_000, b, false);

        assert!(eager.stats().idle_skipped_cycles.get() > 0);
        assert_eq!(
            eager.stats().idle_skipped_cycles.get(),
            lazy.stats().idle_skipped_cycles.get()
        );
    }

    #[test]
    fn first_touch_opens_no_idle_window() {
        let mut d = model();
        d.access(777_777, BlockAddr::new(0), false);
        assert_eq!(
            d.stats().idle_skipped_cycles.get(),
            0,
            "a never-touched bank has no idle window to skip"
        );
    }

    #[test]
    fn superseded_transitions_are_counted_stale() {
        let mut d = model();
        let b = BlockAddr::new(0);
        // Back-to-back same-bank requests: the second strictly raises both
        // slab horizons, so the first request's bank-ready and bus-drain
        // transitions are overwritten in their slots before they fire.
        let done1 = d.access(0, b, false);
        let done2 = d.access(0, b, false);
        assert!(done2 > done1);
        assert_eq!(d.stats().events_stale.get(), 2);
        d.advance_to(done2 * 2);
        assert_eq!(d.pending_events(), 0);
    }

    #[test]
    fn access_many_matches_serial_access_sequence() {
        let cfg = SystemConfig::default().dram;
        let blocks_per_row = (cfg.row_bytes / BLOCK_BYTES) as u64;
        let bank_stride = blocks_per_row
            * cfg.channels as u64
            * (cfg.ranks_per_channel * cfg.banks_per_rank) as u64;
        // Mixed legs: same channel pressure, a write, a same-bank repeat.
        let legs: Vec<(BlockAddr, bool)> = vec![
            (BlockAddr::new(0), true),
            (BlockAddr::new(1), false),
            (BlockAddr::new(bank_stride), false),
            (BlockAddr::new(0), false),
        ];
        let mut batched = DramModel::new(&cfg);
        let mut serial = DramModel::new(&cfg);
        // Pre-history so idle windows and stale entries are in play.
        batched.access(0, BlockAddr::new(0), false);
        serial.access(0, BlockAddr::new(0), false);

        let mut done_b = Vec::new();
        batched.access_many(5_000, &legs, &mut done_b);
        let done_s: Vec<Cycle> = legs
            .iter()
            .map(|&(blk, w)| serial.access(5_000, blk, w))
            .collect();
        assert_eq!(done_b, done_s);

        let (sb, ss) = (batched.stats(), serial.stats());
        assert_eq!(sb.reads.get(), ss.reads.get());
        assert_eq!(sb.writes.get(), ss.writes.get());
        assert_eq!(sb.row_hits.get(), ss.row_hits.get());
        assert_eq!(sb.row_conflicts.get(), ss.row_conflicts.get());
        assert_eq!(sb.idle_skipped_cycles.get(), ss.idle_skipped_cycles.get());
        assert_eq!(sb.events_stale.get(), ss.events_stale.get());
        assert_eq!(batched.pending_events(), serial.pending_events());

        // Follow-up requests observe identical slab state.
        let after_b = batched.access(20_000, BlockAddr::new(1), false);
        let after_s = serial.access(20_000, BlockAddr::new(1), false);
        assert_eq!(after_b, after_s);
    }

    #[test]
    fn export_includes_idle_skip_and_stale_counters() {
        let mut d = model();
        let b = BlockAddr::new(0);
        let done = d.access(0, b, false);
        d.advance_to(done);
        d.access(100_000, b, false);
        let mut reg = StatsRegistry::new();
        d.export_stats("dram", &mut reg);
        assert_eq!(
            reg.counter("dram.idle_skipped_cycles"),
            Some(d.stats().idle_skipped_cycles.get())
        );
        assert_eq!(
            reg.counter("dram.events_stale"),
            Some(d.stats().events_stale.get())
        );
        assert!(d.stats().idle_skipped_cycles.get() > 0);
    }

    #[test]
    fn set_obs_caches_tracer_gate() {
        use ivl_sim_core::obs::trace::TraceFilter;
        use ivl_sim_core::obs::{Obs, Tracer};

        let mut d = model();
        d.access(0, BlockAddr::new(0), false);
        let mut obs = Obs::disabled();
        obs.tracer = Tracer::bounded(16, TraceFilter::all());
        d.set_obs(obs.clone());
        d.access(100, BlockAddr::new(0), false);
        assert_eq!(obs.tracer.sorted_records().len(), 1, "gate on after attach");
        d.set_obs(Obs::disabled());
        d.access(200, BlockAddr::new(0), false);
        assert_eq!(
            obs.tracer.sorted_records().len(),
            1,
            "gate off after detach"
        );
    }
}
