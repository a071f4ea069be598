//! Trace event and trace container types, and the [`EventSource`]
//! streaming abstraction the simulation pipeline consumes.

use simkit::predictor::{BranchInfo, BranchKind};

/// One dynamic control-flow event of a trace, together with the
/// micro-architectural context the penalty model needs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Branch instruction address.
    pub pc: u64,
    /// Branch class (only `Conditional` events are predicted).
    pub kind: BranchKind,
    /// Resolved direction (always `true` for unconditional kinds).
    pub taken: bool,
    /// Branch target address.
    pub target: u64,
    /// Non-branch micro-ops retired since the previous event (the
    /// denominator of MPPKI counts these plus the branch itself).
    pub uops_before: u16,
    /// Address of a load this branch's condition depends on, if any.
    /// The core model walks it through the cache hierarchy to derive the
    /// branch resolution latency (hard traces resolve late, as in CBP-3).
    pub load_addr: Option<u64>,
}

impl TraceEvent {
    /// The [`BranchInfo`] view handed to predictors.
    #[inline]
    pub fn branch_info(&self) -> BranchInfo {
        BranchInfo { pc: self.pc, kind: self.kind, target: self.target }
    }

    /// Micro-ops this event accounts for (its padding plus itself).
    #[inline]
    pub fn uops(&self) -> u64 {
        u64::from(self.uops_before) + 1
    }
}

/// A fully materialized trace: a named, reproducible event sequence.
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    /// Trace name, e.g. `"CLIENT02"`.
    pub name: String,
    /// Category name, e.g. `"CLIENT"`.
    pub category: String,
    /// The event stream.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Total micro-op count (branches + padding micro-ops).
    pub fn total_uops(&self) -> u64 {
        self.events.iter().map(TraceEvent::uops).sum()
    }

    /// Number of conditional branch events.
    pub fn conditional_count(&self) -> u64 {
        self.events.iter().filter(|e| e.kind.is_conditional()).count() as u64
    }

    /// Number of distinct static conditional branch PCs.
    pub fn static_conditional_count(&self) -> usize {
        let mut pcs: Vec<u64> = self
            .events
            .iter()
            .filter(|e| e.kind.is_conditional())
            .map(|e| e.pc)
            .collect();
        pcs.sort_unstable();
        pcs.dedup();
        pcs.len()
    }
}

/// A reusable decode buffer for block-at-a-time event delivery.
///
/// The batched simulation loop refills one `EventBlock` per chunk instead
/// of making one virtual `next_event` call per event; the buffer is
/// reused across refills so the steady state allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct EventBlock {
    /// The decoded events, in stream order.
    pub events: Vec<TraceEvent>,
}

impl EventBlock {
    /// An empty block with capacity for `cap` events.
    pub fn with_capacity(cap: usize) -> Self {
        Self { events: Vec::with_capacity(cap) }
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the block holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// A pull-based stream of trace events plus the metadata reports need.
///
/// This is the interface the simulation engine consumes: a fully
/// materialized [`Trace`] (via [`TraceStream`]), a lazily generated
/// program execution ([`crate::program::ProgramStream`]), or anything
/// else that can produce [`TraceEvent`]s one at a time. Streaming keeps
/// memory proportional to the in-flight window instead of the trace
/// length, which is what makes very long traces feasible.
pub trait EventSource {
    /// Trace name, e.g. `"CLIENT02"` (for reports).
    fn name(&self) -> &str;

    /// Category name, e.g. `"CLIENT"` (for reports).
    fn category(&self) -> &str;

    /// Produces the next event, or `None` at end of stream.
    fn next_event(&mut self) -> Option<TraceEvent>;

    /// Refills `block` with up to `max` events (clearing any previous
    /// contents) and returns the number delivered; `0` means end of
    /// stream. The default pulls events one at a time, so any source gets
    /// block delivery for free; sources with random-access backing (e.g.
    /// [`TraceStream`]) override it with a bulk copy, and the `Box<dyn …>`
    /// forwarding impl overrides it so a whole block costs one virtual
    /// call instead of `max`.
    fn next_block(&mut self, block: &mut EventBlock, max: usize) -> usize {
        block.events.clear();
        while block.events.len() < max {
            match self.next_event() {
                Some(e) => block.events.push(e),
                None => break,
            }
        }
        block.events.len()
    }

    /// Advances the stream past the next `n` events, returning how many
    /// were actually skipped (fewer only at end of stream). The default
    /// decodes and discards one event at a time, so every source —
    /// synthetic, CSV, v2 — supports positioning for sampled simulation;
    /// sources with random-access backing ([`TraceStream`], the indexed
    /// `.ttr` v3 reader) override it with an O(1) seek.
    fn skip(&mut self, n: u64) -> u64 {
        let mut skipped = 0;
        while skipped < n && self.next_event().is_some() {
            skipped += 1;
        }
        skipped
    }

    /// Materializes the remaining stream into a [`Trace`].
    fn collect_trace(mut self) -> Trace
    where
        Self: Sized,
    {
        let name = self.name().to_string();
        let category = self.category().to_string();
        let mut events = Vec::new();
        while let Some(e) = self.next_event() {
            events.push(e);
        }
        Trace { name, category, events }
    }
}

/// Boxed sources forward, so `Box<dyn EventSource>` (and boxed subtraits,
/// e.g. foreign-format trace decoders) plug directly into generic
/// consumers like `pipeline::simulate_engine`.
impl<E: EventSource + ?Sized> EventSource for Box<E> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn category(&self) -> &str {
        (**self).category()
    }

    #[inline]
    fn next_event(&mut self) -> Option<TraceEvent> {
        (**self).next_event()
    }

    #[inline]
    fn next_block(&mut self, block: &mut EventBlock, max: usize) -> usize {
        (**self).next_block(block, max)
    }

    #[inline]
    fn skip(&mut self, n: u64) -> u64 {
        (**self).skip(n)
    }
}

/// A borrowing [`EventSource`] over a materialized [`Trace`].
#[derive(Clone, Debug)]
pub struct TraceStream<'a> {
    trace: &'a Trace,
    pos: usize,
}

impl<'a> TraceStream<'a> {
    /// Streams `trace` from the beginning.
    pub fn new(trace: &'a Trace) -> Self {
        Self { trace, pos: 0 }
    }
}

impl EventSource for TraceStream<'_> {
    fn name(&self) -> &str {
        &self.trace.name
    }

    fn category(&self) -> &str {
        &self.trace.category
    }

    #[inline]
    fn next_event(&mut self) -> Option<TraceEvent> {
        let e = self.trace.events.get(self.pos).copied();
        self.pos += e.is_some() as usize;
        e
    }

    fn next_block(&mut self, block: &mut EventBlock, max: usize) -> usize {
        let remaining = &self.trace.events[self.pos.min(self.trace.events.len())..];
        let n = remaining.len().min(max);
        block.events.clear();
        block.events.extend_from_slice(&remaining[..n]);
        self.pos += n;
        n
    }

    fn skip(&mut self, n: u64) -> u64 {
        let left = self.trace.events.len() - self.pos.min(self.trace.events.len());
        let n = (left as u64).min(n);
        self.pos += n as usize;
        n
    }
}

impl Iterator for TraceStream<'_> {
    type Item = TraceEvent;

    fn next(&mut self) -> Option<TraceEvent> {
        self.next_event()
    }
}

impl Trace {
    /// A streaming view of this trace.
    pub fn stream(&self) -> TraceStream<'_> {
        TraceStream::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(pc: u64, taken: bool, uops: u16) -> TraceEvent {
        TraceEvent {
            pc,
            kind: BranchKind::Conditional,
            taken,
            target: pc + 8,
            uops_before: uops,
            load_addr: None,
        }
    }

    #[test]
    fn uop_accounting() {
        let t = Trace {
            name: "t".into(),
            category: "TEST".into(),
            events: vec![ev(4, true, 3), ev(8, false, 0)],
        };
        assert_eq!(t.total_uops(), 5);
        assert_eq!(t.conditional_count(), 2);
    }

    #[test]
    fn static_counts_dedup() {
        let t = Trace {
            name: "t".into(),
            category: "TEST".into(),
            events: vec![ev(4, true, 0), ev(4, false, 0), ev(12, true, 0)],
        };
        assert_eq!(t.static_conditional_count(), 2);
    }

    #[test]
    fn branch_info_view() {
        let e = ev(0x100, true, 2);
        let b = e.branch_info();
        assert_eq!(b.pc, 0x100);
        assert!(b.kind.is_conditional());
    }

    #[test]
    fn trace_stream_yields_events_in_order() {
        let t = Trace {
            name: "t".into(),
            category: "TEST".into(),
            events: vec![ev(4, true, 3), ev(8, false, 0), ev(12, true, 1)],
        };
        let streamed: Vec<TraceEvent> = t.stream().collect();
        assert_eq!(streamed, t.events);
        let mut s = t.stream();
        assert_eq!(s.name(), "t");
        assert_eq!(s.category(), "TEST");
        while s.next_event().is_some() {}
        assert_eq!(s.next_event(), None);
    }

    #[test]
    fn boxed_dyn_source_forwards() {
        let t = Trace {
            name: "t".into(),
            category: "TEST".into(),
            events: vec![ev(4, true, 3), ev(8, false, 0)],
        };
        let mut boxed: Box<dyn EventSource + '_> = Box::new(t.stream());
        assert_eq!(boxed.name(), "t");
        assert_eq!(boxed.category(), "TEST");
        let mut n = 0;
        while boxed.next_event().is_some() {
            n += 1;
        }
        assert_eq!(n, 2);
        let boxed: Box<dyn EventSource + '_> = Box::new(t.stream());
        assert_eq!(boxed.collect_trace(), t);
    }

    #[test]
    fn next_block_matches_next_event_for_any_chunking() {
        let t = Trace {
            name: "t".into(),
            category: "TEST".into(),
            events: (0..13).map(|i| ev(4 * (i + 1), i % 3 == 0, i as u16)).collect(),
        };
        for max in [1usize, 2, 5, 13, 64] {
            let mut s = t.stream();
            let mut block = EventBlock::default();
            let mut got = Vec::new();
            loop {
                let n = s.next_block(&mut block, max);
                assert_eq!(n, block.len());
                if n == 0 {
                    break;
                }
                assert!(n <= max);
                got.extend_from_slice(&block.events);
            }
            assert_eq!(got, t.events, "chunk size {max}");
            // End of stream is sticky.
            assert_eq!(s.next_block(&mut block, max), 0);
            assert!(block.is_empty());
        }
    }

    #[test]
    fn default_and_boxed_next_block_agree_with_override() {
        struct OneAtATime<'a>(TraceStream<'a>);
        impl EventSource for OneAtATime<'_> {
            fn name(&self) -> &str {
                self.0.name()
            }
            fn category(&self) -> &str {
                self.0.category()
            }
            fn next_event(&mut self) -> Option<TraceEvent> {
                self.0.next_event()
            }
        }
        let t = Trace {
            name: "t".into(),
            category: "TEST".into(),
            events: (0..7).map(|i| ev(8 * (i + 1), i % 2 == 0, 1)).collect(),
        };
        let mut block = EventBlock::with_capacity(4);
        // Default (pull-loop) implementation.
        let mut slow = OneAtATime(t.stream());
        assert_eq!(slow.next_block(&mut block, 4), 4);
        assert_eq!(block.events, t.events[..4]);
        // Boxed forwarding reaches the TraceStream override.
        let mut boxed: Box<dyn EventSource + '_> = Box::new(t.stream());
        assert_eq!(boxed.next_block(&mut block, 4), 4);
        assert_eq!(block.events, t.events[..4]);
        assert_eq!(boxed.next_block(&mut block, 4), 3);
        assert_eq!(block.events, t.events[4..]);
    }

    #[test]
    fn skip_positions_like_decode_discard() {
        let t = Trace {
            name: "t".into(),
            category: "TEST".into(),
            events: (0..11).map(|i| ev(4 * (i + 1), i % 3 == 0, i as u16)).collect(),
        };
        for n in [0u64, 1, 5, 11, 20] {
            // TraceStream's O(1) override. (UFCS: TraceStream is also an
            // Iterator, whose `skip` adapter would shadow the trait's.)
            let mut fast = t.stream();
            let skipped = EventSource::skip(&mut fast, n);
            assert_eq!(skipped, n.min(11));
            // The default decode-discard path, via a wrapper without an
            // override.
            struct Plain<'a>(TraceStream<'a>);
            impl EventSource for Plain<'_> {
                fn name(&self) -> &str {
                    self.0.name()
                }
                fn category(&self) -> &str {
                    self.0.category()
                }
                fn next_event(&mut self) -> Option<TraceEvent> {
                    self.0.next_event()
                }
            }
            let mut slow = Plain(t.stream());
            assert_eq!(EventSource::skip(&mut slow, n), skipped, "skip({n})");
            let rest_fast: Vec<TraceEvent> = std::iter::from_fn(|| fast.next_event()).collect();
            let rest_slow: Vec<TraceEvent> = std::iter::from_fn(|| slow.next_event()).collect();
            assert_eq!(rest_fast, rest_slow, "skip({n}) diverged");
            assert_eq!(rest_fast.len() as u64, 11u64.saturating_sub(n));
        }
        // Boxed forwarding reaches the override.
        let mut boxed: Box<dyn EventSource + '_> = Box::new(t.stream());
        assert_eq!(boxed.skip(4), 4);
        assert_eq!(boxed.next_event().unwrap(), t.events[4]);
    }

    #[test]
    fn collect_trace_round_trips() {
        let t = Trace {
            name: "t".into(),
            category: "TEST".into(),
            events: vec![ev(4, true, 3), ev(8, false, 0)],
        };
        assert_eq!(t.stream().collect_trace(), t);
    }
}
