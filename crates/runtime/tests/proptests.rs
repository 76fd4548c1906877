//! Property tests for the mini-MapReduce engine: arbitrary jobs must agree
//! with a direct in-memory evaluation of the same map/reduce functions.

use std::collections::BTreeMap;

use dwmaxerr_runtime::codec::encoded;
use dwmaxerr_runtime::{
    Cluster, ClusterConfig, JobBuilder, MapContext, ReduceContext, TaskPhase, TraceEventKind,
    Values,
};
use proptest::prelude::*;

fn quiet_cluster(reducers_hint: usize) -> Cluster {
    let mut cfg = ClusterConfig::with_slots(4.max(reducers_hint), 2.max(reducers_hint));
    cfg.task_startup = std::time::Duration::ZERO;
    cfg.job_setup = std::time::Duration::ZERO;
    Cluster::new(cfg)
}

/// Reference semantics: group by key, sum values per key.
fn reference_sum(splits: &[Vec<(u32, i64)>]) -> BTreeMap<u32, i64> {
    let mut out = BTreeMap::new();
    for split in splits {
        for &(k, v) in split {
            *out.entry(k).or_insert(0) += v;
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sum_job_matches_reference(
        splits in prop::collection::vec(
            prop::collection::vec((0u32..50, -1000i64..1000), 0..40),
            1..8,
        ),
        reducers in 1usize..5,
    ) {
        let cluster = quiet_cluster(reducers);
        let out = JobBuilder::new("prop-sum")
            .map(|split: &Vec<(u32, i64)>, ctx: &mut MapContext<u32, i64>| {
                for &(k, v) in split {
                    ctx.emit(k, v);
                }
            })
            .reducers(reducers)
            .reduce(|k, vals, ctx: &mut ReduceContext<u32, i64>| {
                ctx.emit(*k, vals.sum());
            })
            .run(&cluster, &splits)
            .unwrap();
        let got: BTreeMap<u32, i64> = out.pairs.into_iter().collect();
        prop_assert_eq!(got, reference_sum(&splits));
    }

    #[test]
    fn combiner_never_changes_a_sum_job(
        splits in prop::collection::vec(
            prop::collection::vec((0u32..20, -100i64..100), 0..30),
            1..6,
        ),
    ) {
        let run = |combine: bool| {
            let cluster = quiet_cluster(2);
            let stage = JobBuilder::new("prop-combine")
                .map(|split: &Vec<(u32, i64)>, ctx: &mut MapContext<u32, i64>| {
                    for &(k, v) in split {
                        ctx.emit(k, v);
                    }
                })
                .reducers(2);
            let stage = if combine {
                stage.combine_with(|_k, vals: Values<'_, u32, i64>| vals.sum())
            } else {
                stage
            };
            let mut pairs = stage
                .reduce(|k, vals, ctx: &mut ReduceContext<u32, i64>| {
                    ctx.emit(*k, vals.sum());
                })
                .run(&cluster, &splits)
                .unwrap()
                .pairs;
            pairs.sort();
            pairs
        };
        prop_assert_eq!(run(false), run(true));
    }

    #[test]
    fn shuffle_bytes_match_encoded_sizes(
        records in prop::collection::vec((any::<u64>(), any::<i32>()), 0..100),
    ) {
        let expected: usize = records
            .iter()
            .map(|r| encoded(&r.0).len() + encoded(&r.1).len())
            .sum();
        let cluster = quiet_cluster(1);
        let out = JobBuilder::new("prop-bytes")
            .map(|split: &Vec<(u64, i32)>, ctx: &mut MapContext<u64, i32>| {
                for &(k, v) in split {
                    ctx.emit(k, v);
                }
            })
            .reduce(|k, vals, ctx: &mut ReduceContext<u64, i32>| {
                for v in vals {
                    ctx.emit(*k, v);
                }
            })
            .run(&cluster, std::slice::from_ref(&records));
        let out = out.unwrap();
        prop_assert_eq!(out.metrics.shuffle_bytes as usize, expected);
        prop_assert_eq!(out.metrics.shuffle_records as usize, records.len());
    }

    #[test]
    fn reduce_sees_keys_in_order_per_partition(
        keys in prop::collection::vec(any::<i64>(), 1..200),
        reducers in 1usize..4,
    ) {
        let cluster = quiet_cluster(reducers);
        let out = JobBuilder::new("prop-order")
            .map(|split: &Vec<i64>, ctx: &mut MapContext<i64, ()>| {
                for &k in split {
                    ctx.emit(k, ());
                }
            })
            .reducers(reducers)
            .partition_by(move |k: &i64, parts| (k.unsigned_abs() as usize) % parts)
            .reduce(|k, _vals, ctx: &mut ReduceContext<i64, ()>| {
                ctx.emit(*k, ());
            })
            .run(&cluster, std::slice::from_ref(&keys))
            .unwrap();
        // Output is per-partition key-sorted runs; verify each partition's
        // keys arrive ascending.
        let mut per_part: Vec<Vec<i64>> = vec![Vec::new(); reducers];
        for (k, ()) in out.pairs {
            per_part[(k.unsigned_abs() as usize) % reducers].push(k);
        }
        for (p, ks) in per_part.iter().enumerate() {
            prop_assert!(ks.windows(2).all(|w| w[0] < w[1]), "partition {p} unsorted");
        }
    }

    #[test]
    fn simulated_time_components_are_consistent(
        tasks in 1usize..20,
        slots in 1usize..8,
    ) {
        let mut cfg = ClusterConfig::with_slots(slots, 1);
        cfg.task_startup = std::time::Duration::from_millis(10);
        cfg.job_setup = std::time::Duration::from_millis(5);
        let disk_rate = cfg.disk_bytes_per_sec;
        let cluster = Cluster::new(cfg);
        let splits: Vec<u64> = (0..tasks as u64).collect();
        let out = JobBuilder::new("prop-sim")
            .map(|_s: &u64, ctx: &mut MapContext<u8, u8>| ctx.emit(0, 0))
            .reduce(|_k, _v, _c: &mut ReduceContext<u8, u8>| {})
            .run(&cluster, &splits)
            .unwrap();
        let m = &out.metrics;
        // Every task costs the same, so the map phase is exactly its waves,
        // each one startup plus the task's price.
        let price = m.map_costs[0].secs(disk_rate);
        prop_assert!(m.map_costs.iter().all(|c| c.secs(disk_rate) == price));
        let waves = tasks.div_ceil(slots) as f64;
        let want = waves * (0.010 + price);
        prop_assert!((m.sim.map - want).abs() < 1e-12,
            "map phase {} != {} waves x (10ms + {})", m.sim.map, waves, price);
        prop_assert_eq!(m.sim.setup, 0.005);
        prop_assert!(m.simulated().secs() >= m.sim.map + m.sim.reduce);
        let waves = cluster
            .trace_events()
            .iter()
            .filter(|e| matches!(e.kind, TraceEventKind::Wave { phase: TaskPhase::Map, .. }))
            .count();
        prop_assert_eq!(waves, tasks.div_ceil(slots));
    }

    #[test]
    fn makespan_bounded_by_critical_path_and_serial_time(
        durations in prop::collection::vec(0.0f64..10.0, 1..40),
        slots in 1usize..16,
        startup in 0.0f64..0.5,
    ) {
        let m = healthy_makespan(&durations, slots, startup);
        // Lower bound: the longest single task (plus its startup) can never
        // be beaten by adding slots.
        let longest = durations.iter().copied().fold(0.0f64, f64::max);
        prop_assert!(m >= longest + startup - 1e-9, "makespan {m} < {longest} + {startup}");
        // Upper bound: one slot executing everything serially.
        let serial: f64 = durations.iter().map(|d| d + startup).sum();
        prop_assert!(m <= serial + 1e-9, "makespan {m} > serial {serial}");
    }

    #[test]
    fn makespan_monotone_non_increasing_in_slots(
        durations in prop::collection::vec(0.0f64..10.0, 1..40),
        slots in 1usize..16,
        startup in 0.0f64..0.5,
    ) {
        let tight = healthy_makespan(&durations, slots, startup);
        let roomy = healthy_makespan(&durations, slots + 1, startup);
        prop_assert!(roomy <= tight + 1e-9, "{roomy} > {tight} with an extra slot");
    }
}

/// The makespan of one healthy attempt per duration, scheduled on `slots`
/// slots with no faults and no speculation.
fn healthy_makespan(durations: &[f64], slots: usize, startup: f64) -> f64 {
    use dwmaxerr_runtime::scheduler::{schedule_attempts_on, NodeFaults, TaskPlan};
    let plans: Vec<TaskPlan> = durations.iter().map(|&d| TaskPlan::healthy(d)).collect();
    let faults = NodeFaults::none(slots);
    let phase = dwmaxerr_runtime::TaskPhase::Map;
    schedule_attempts_on(phase, &plans, slots, startup, 0.0, None, &faults).makespan
}

mod codec_edge_cases {
    //! Round-trip properties of `runtime::codec` at the edges of its value
    //! space: zero-byte encodings, zero-length containers, and
    //! extreme-magnitude numeric payloads.

    use dwmaxerr_runtime::codec::{encoded, encoded_len, Wire};
    use proptest::prelude::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: &T) -> T {
        let buf = encoded(v);
        let mut slice = buf.as_slice();
        let back = T::decode(&mut slice).expect("decode");
        assert!(slice.is_empty(), "trailing bytes after decode");
        back
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn f64_roundtrips_bit_exactly_for_any_payload(bits in any::<u64>()) {
            // Every possible bit pattern — NaNs with payloads, ±inf,
            // subnormals, -0.0 — must survive the wire unchanged.
            let v = f64::from_bits(bits);
            let buf = encoded(&v);
            prop_assert_eq!(buf.len(), 8);
            let mut s = buf.as_slice();
            let back = f64::decode(&mut s).unwrap();
            prop_assert_eq!(back.to_bits(), bits);
        }

        #[test]
        fn integer_width_is_magnitude_independent(v in any::<u64>(), w in any::<i64>()) {
            // The format is deliberately fixed-width (the paper's cost model
            // counts sizeOf(int)-style sizes), so the encoded length must
            // not vary with magnitude.
            prop_assert_eq!(encoded_len(&v), 8);
            prop_assert_eq!(encoded_len(&w), 8);
            prop_assert_eq!(roundtrip(&v), v);
            prop_assert_eq!(roundtrip(&w), w);
        }

        #[test]
        fn possibly_empty_key_lists_roundtrip(
            keys in prop::collection::vec(any::<u32>(), 0..8),
            tag in any::<u8>(),
        ) {
            // Zero-length key lists are a real shuffle payload (a reducer
            // group with no survivors); the length prefix must keep them
            // distinguishable from absent values.
            let pair = (tag, keys.clone());
            prop_assert_eq!(roundtrip(&pair), pair);
            prop_assert_eq!(encoded_len(&keys), 4 + 4 * keys.len());
        }

        #[test]
        fn zero_byte_values_roundtrip_by_count(n in 0usize..100) {
            // `()` encodes to zero bytes; only the Vec length prefix
            // carries information.
            let v = vec![(); n];
            prop_assert_eq!(encoded_len(&v), 4);
            prop_assert_eq!(roundtrip(&v).len(), n);
        }

        #[test]
        fn nested_options_and_empty_vectors_roundtrip(
            outer in prop::collection::vec(
                prop::option::of(prop::collection::vec(any::<u64>().prop_map(f64::from_bits), 0..4)),
                0..6,
            ),
        ) {
            let back = roundtrip(&outer.clone());
            // Compare via bits so NaN-bearing lanes still count as equal.
            let bits = |v: &Vec<Option<Vec<f64>>>| -> Vec<Option<Vec<u64>>> {
                v.iter()
                    .map(|o| o.as_ref().map(|xs| xs.iter().map(|x| x.to_bits()).collect()))
                    .collect()
            };
            prop_assert_eq!(bits(&back), bits(&outer));
        }
    }

    #[test]
    fn named_extremes_roundtrip() {
        for v in [
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            5e-324, // smallest positive subnormal
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
        ] {
            let back = roundtrip(&v);
            assert_eq!(back.to_bits(), v.to_bits(), "{v:?}");
        }
        for v in [u64::MAX, u64::MIN, 1u64 << 63] {
            assert_eq!(roundtrip(&v), v);
        }
        for v in [i64::MAX, i64::MIN, -1i64] {
            assert_eq!(roundtrip(&v), v);
        }
        assert_eq!(roundtrip(&usize::MAX), usize::MAX);
    }
}

mod shuffle_equivalence {
    //! The engine's shuffle (map-side sorted spills + k-way reduce merge)
    //! must be observationally identical to the oracle
    //! `reference::shuffle_reduce`: same output pairs in the same order,
    //! same shuffle-byte and record accounting, per partition. Duplicate
    //! keys across runs, empty splits, single-split jobs, NaN-bearing f64
    //! payloads, memory pressure, both spill backends and node faults are
    //! all exercised by the generators.

    use dwmaxerr_runtime::codec::{encoded, encoded_len, FnvHasher, Wire, WireSink};
    use dwmaxerr_runtime::reference::shuffle_reduce;
    use dwmaxerr_runtime::trace::TraceEventKind;
    use dwmaxerr_runtime::{
        Cluster, ClusterConfig, FaultPlan, JobBuilder, MapContext, ReduceContext, SpillBackend,
        Values,
    };
    use proptest::prelude::*;

    /// Pairs (values as bits, so NaN payloads stay comparable),
    /// `shuffle_bytes`, `shuffle_records`, per-partition shuffle bytes.
    type Observed = (Vec<(u32, u64)>, u64, u64, Vec<u64>);

    fn quiet_config(reducers: usize) -> ClusterConfig {
        let mut cfg = ClusterConfig::with_slots(4.max(reducers), 2.max(reducers));
        cfg.task_startup = std::time::Duration::ZERO;
        cfg.job_setup = std::time::Duration::ZERO;
        cfg
    }

    /// Bit-preserving combiner: keep the first value per key.
    fn first(_k: &u32, mut vals: Values<'_, u32, f64>) -> f64 {
        vals.next().expect("non-empty group")
    }

    /// Without a combiner the reducer emits every value, so intra-group
    /// order is observable — through `fold`, which takes a run's equal-key
    /// stretch in one loop. With one it applies the combiner's own fold —
    /// Hadoop's contract: each spill carries its own partial fold, so only
    /// a reducer that finishes the same associative fold sees the same
    /// answer however often the map side spilled.
    fn reducer(
        combine: bool,
    ) -> impl Fn(&u32, Values<'_, u32, f64>, &mut ReduceContext<u32, f64>) + Copy + Sync {
        move |k, vals, ctx| {
            if combine {
                ctx.emit(*k, first(k, vals));
            } else {
                vals.fold((), |(), v| ctx.emit(*k, v));
            }
        }
    }

    fn bits(pairs: Vec<(u32, f64)>) -> Vec<(u32, u64)> {
        pairs.into_iter().map(|(k, v)| (k, v.to_bits())).collect()
    }

    /// Runs the grouping job on the engine under `cfg`.
    fn run_engine(
        splits: &[Vec<(u32, u64)>],
        reducers: usize,
        combine: bool,
        cfg: ClusterConfig,
    ) -> Observed {
        let cluster = Cluster::new(cfg);
        let mut stage = JobBuilder::new("prop-shuffle-eq")
            .map(|split: &Vec<(u32, u64)>, ctx: &mut MapContext<u32, f64>| {
                for &(k, bits) in split {
                    ctx.emit(k, f64::from_bits(bits));
                }
            })
            .reducers(reducers);
        if combine {
            stage = stage.combine_with(first);
        }
        let out = stage
            .reduce(reducer(combine))
            .run(&cluster, splits)
            .unwrap();
        let per_partition = cluster
            .trace_events()
            .iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::ShufflePartition { bytes, .. } => Some(bytes),
                _ => None,
            })
            .collect();
        (
            bits(out.pairs),
            out.metrics.shuffle_bytes,
            out.metrics.shuffle_records,
            per_partition,
        )
    }

    /// The same job through the oracle.
    fn run_oracle(splits: &[Vec<(u32, u64)>], reducers: usize, combine: bool) -> Observed {
        let emitted: Vec<Vec<(u32, f64)>> = splits
            .iter()
            .map(|s| s.iter().map(|&(k, b)| (k, f64::from_bits(b))).collect())
            .collect();
        let combiner = if combine { Some(&first as _) } else { None };
        let (pairs, per_partition, records) =
            shuffle_reduce(&emitted, reducers, combiner, reducer(combine));
        (
            bits(pairs),
            per_partition.iter().sum(),
            records,
            per_partition,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn multi_pass_merge_is_bit_identical_to_single_pass(
            // Duplicate-heavy keys (0..6) so groups span many runs, raw bit
            // patterns so NaN payloads appear, and possibly-empty splits so
            // empty runs appear. A 32-byte budget against 12-byte pairs
            // forces multi-run spills on any split with a few records.
            splits in prop::collection::vec(
                prop::collection::vec((0u32..6, any::<u64>()), 0..40),
                1..7,
            ),
            reducers in 1usize..4,
            fan_in in 2usize..4,
        ) {
            let mut cfg = quiet_config(reducers);
            cfg.io_sort_bytes = 32;
            cfg.io_sort_factor = fan_in;
            let multi = run_engine(&splits, reducers, false, cfg);
            let single = run_engine(&splits, reducers, false, quiet_config(reducers));
            prop_assert_eq!(&multi, &single, "multi-pass diverges from single-pass");
            prop_assert_eq!(single, run_oracle(&splits, reducers, false));
        }

        #[test]
        fn sort_merge_is_bit_identical_to_global_sort(
            // Keys collide often (0..12) so groups span runs; values are raw
            // bit patterns, so NaNs and -0.0 appear. Splits may be empty.
            splits in prop::collection::vec(
                prop::collection::vec((0u32..12, any::<u64>()), 0..25),
                1..7,
            ),
            reducers in 1usize..4,
            combine in any::<bool>(),
            // The engine under pressure and faults, jointly: a tiny or huge
            // spill budget, a small merge fan-in, either spill backend, and
            // a seeded plan that kills one node (before the job, or after
            // the maps so their outputs are lost) and corrupts one map
            // task's runs.
            tiny_budget in any::<bool>(),
            fan_in in 2usize..4,
            disk in any::<bool>(),
            fault_seed in any::<u64>(),
        ) {
            let mut cfg = quiet_config(reducers);
            cfg.io_sort_bytes = if tiny_budget { 32 } else { 100 << 20 };
            cfg.io_sort_factor = fan_in;
            cfg.spill_backend = if disk { SpillBackend::Disk } else { SpillBackend::Memory };
            let kill_at = if fault_seed & 1 == 0 { 0.0 } else { 1000.0 };
            cfg.fault_plan = Some(
                FaultPlan::seeded(fault_seed)
                    .with_node_failure((fault_seed >> 1) as usize % 4, kill_at)
                    .with_corrupt_run((fault_seed >> 3) as usize % splits.len()),
            );
            let engine = run_engine(&splits, reducers, combine, cfg);
            let oracle = run_oracle(&splits, reducers, combine);
            prop_assert_eq!(&engine.0, &oracle.0, "pair streams diverge");
            // A combiner folds once per spill, so a task that spilled
            // mid-map ships more (partial) records than the oracle's
            // single per-task fold; the accounting is comparable otherwise.
            if !(combine && tiny_budget) {
                prop_assert_eq!(engine.1, oracle.1, "shuffle bytes diverge");
                prop_assert_eq!(engine.2, oracle.2, "shuffle records diverge");
                prop_assert_eq!(engine.3, oracle.3, "per-partition bytes diverge");
            }
        }

        #[test]
        fn single_split_jobs_agree(
            records in prop::collection::vec((any::<u32>(), any::<u64>()), 0..40),
        ) {
            let splits = vec![records];
            let engine = run_engine(&splits, 2, false, quiet_config(2));
            prop_assert_eq!(engine, run_oracle(&splits, 2, false));
        }

        #[test]
        fn every_sink_sees_the_buffered_encoding(
            key in any::<u64>(),
            text in prop::collection::vec(any::<u8>(), 0..12)
                .prop_map(|bs| bs.iter().map(|b| char::from(b % 26 + b'a')).collect::<String>()),
            list in prop::collection::vec(any::<u32>(), 0..6),
            opt in prop::option::of(any::<i64>()),
        ) {
            // Encoding into FnvHasher must hash exactly the bytes encoding
            // into a Vec writes — the zero-alloc partitioner's contract —
            // and a CountingSink must count them.
            fn check<T: Wire>(v: &T) {
                let buffered = encoded(v);
                let mut hasher = FnvHasher::new();
                v.encode(&mut hasher);
                let mut reference = FnvHasher::new();
                reference.write(&buffered);
                assert_eq!(hasher.finish(), reference.finish());
                assert_eq!(encoded_len(v), buffered.len());
            }
            check(&key);
            check(&text);
            check(&list);
            check(&opt);
            check(&(key, text.clone(), list.clone()));
        }
    }
}

mod frame_codec {
    //! `codec::frame` under both instantiations' shapes (u64 length as
    //! `DWR3`, u32 length as `DWQ2`) and `codec::checksum64` under it:
    //! every frame round-trips through both decoders, and every mutation
    //! of a valid frame is a typed error from both — never a panic, never
    //! an `Ok`, never a read past the header of an over-cap frame.

    use dwmaxerr_runtime::codec::frame::{Format, FrameError, LenWidth};
    use dwmaxerr_runtime::codec::{checksum64, FnvHasher, WireSink};
    use proptest::prelude::*;
    use std::io::ErrorKind;

    const CAP: usize = 256;
    const FORMATS: [Format; 2] = [
        Format::new(*b"DWR3", LenWidth::U64, CAP),
        Format::new(*b"DWQ2", LenWidth::U32, CAP),
    ];

    fn frame_of(format: &Format, payload: &[u8]) -> Vec<u8> {
        let mut frame = Vec::new();
        format
            .build(&mut frame, |buf| buf.extend_from_slice(payload))
            .expect("under the cap");
        frame
    }

    /// The stream decoder's verdict on `bytes` in `open`'s vocabulary:
    /// `Ok` with the payload, or the error and how many bytes it consumed.
    fn read_verdict(format: &Format, bytes: &[u8]) -> Result<Vec<u8>, (ErrorKind, usize)> {
        let mut source = bytes;
        match format.read(&mut source) {
            Ok(Some(payload)) => Ok(payload),
            Ok(None) => Err((ErrorKind::UnexpectedEof, 0)),
            Err(e) => Err((e.kind(), bytes.len() - source.len())),
        }
    }

    /// Asserts both decoders reject `bytes`; `open` with exactly `want`.
    fn assert_rejected(format: &Format, bytes: &[u8], want: FrameError, what: &str) {
        assert_eq!(format.open(bytes), Err(want), "open: {what}");
        let (kind, _) = read_verdict(format, bytes).expect_err(what);
        let want_kind = match want {
            // A stream cannot see a short frame's end coming; a long
            // frame's extra bytes are the next frame's problem.
            FrameError::BadLength => ErrorKind::UnexpectedEof,
            _ => ErrorKind::InvalidData,
        };
        assert_eq!(kind, want_kind, "read: {what}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn any_single_bit_flip_changes_checksum64(
            payload in prop::collection::vec(any::<u8>(), 0..=100),
        ) {
            // Lengths 0..=100 cover whole stripes and the 8-, 4- and
            // 1-byte tails, alone and combined.
            let clean = checksum64(&payload);
            let mut flipped = payload.clone();
            for bit in 0..payload.len() * 8 {
                flipped[bit / 8] ^= 1 << (bit % 8);
                prop_assert_ne!(checksum64(&flipped), clean, "bit {}", bit);
                flipped[bit / 8] ^= 1 << (bit % 8);
            }
            // Length is folded in: a zero byte more or less is not a no-op.
            flipped.push(0);
            prop_assert_ne!(checksum64(&flipped), clean);
        }

        #[test]
        fn frames_roundtrip_through_both_decoders(
            payload in prop::collection::vec(any::<u8>(), 0..=CAP),
        ) {
            for format in &FORMATS {
                let frame = frame_of(format, &payload);
                prop_assert_eq!(frame.len(), payload.len() + format.overhead());
                prop_assert_eq!(format.open(&frame), Ok(&payload[..]));
                prop_assert_eq!(read_verdict(format, &frame), Ok(payload.clone()));
            }
        }

        #[test]
        fn every_mutation_of_a_valid_frame_is_a_typed_error(
            payload in prop::collection::vec(any::<u8>(), 1..=100),
            mask in 1u8..=255,
            lie in 1usize..=100,
        ) {
            for format in &FORMATS {
                let frame = frame_of(format, &payload);
                let header = format.header_bytes();

                // Truncated at every prefix length.
                for cut in 0..frame.len() {
                    assert_rejected(format, &frame[..cut], FrameError::BadLength, "truncated");
                }

                // Each byte flipped: the field it lands in names the error,
                // except in the length field, where it depends on the lie.
                for at in 0..frame.len() {
                    let mut bad = frame.clone();
                    bad[at] ^= mask;
                    if at < 4 {
                        assert_rejected(format, &bad, FrameError::BadMagic, "flipped magic");
                    } else if at >= header {
                        assert_rejected(format, &bad, FrameError::ChecksumMismatch, "flipped body");
                    } else {
                        prop_assert!(format.open(&bad).is_err(), "flipped length");
                        prop_assert!(read_verdict(format, &bad).is_err(), "flipped length");
                    }
                }

                // A length over the cap: refused with only the header read,
                // so nothing was allocated for it.
                let mut over = frame.clone();
                over[4..8].copy_from_slice(&((CAP + lie) as u32).to_le_bytes());
                prop_assert_eq!(format.open(&over), Err(FrameError::OverCap));
                prop_assert_eq!(
                    read_verdict(format, &over),
                    Err((ErrorKind::InvalidData, header))
                );

                // A length under the cap that lies, both ways.
                for wrong in [payload.len() + lie, payload.len() - 1] {
                    let mut bad = frame.clone();
                    bad[4..8].copy_from_slice(&(wrong as u32).to_le_bytes());
                    prop_assert_eq!(format.open(&bad), Err(FrameError::BadLength));
                    prop_assert!(read_verdict(format, &bad).is_err(), "length lies");
                }

                // A valid frame with a garbage tail: not a frame as a whole;
                // as a stream, the frame and then a bad magic.
                let tailed = [&frame[..], b"garbage!"].concat();
                prop_assert_eq!(format.open(&tailed), Err(FrameError::BadLength));
                let mut source = &tailed[..];
                prop_assert_eq!(format.read(&mut source).unwrap(), Some(payload.clone()));
                prop_assert_eq!(
                    format.read(&mut source).unwrap_err().kind(),
                    ErrorKind::InvalidData
                );

                // The previous revisions of both framings.
                for old_magic in [b"DWR2", b"DWQ1"] {
                    let mut old = frame.clone();
                    old[..4].copy_from_slice(old_magic);
                    assert_rejected(format, &old, FrameError::BadMagic, "old magic");
                }
                let mut fnv = FnvHasher::new();
                fnv.write(&payload);
                let mut old_footer = frame.clone();
                let footer = old_footer.len() - 8;
                old_footer[footer..].copy_from_slice(&fnv.finish().to_le_bytes());
                assert_rejected(format, &old_footer, FrameError::ChecksumMismatch, "FNV footer");
            }
        }
    }
}

mod corruption {
    use dwmaxerr_runtime::codec::{CodecError, Wire, WireSink};
    use dwmaxerr_runtime::{
        Cluster, ClusterConfig, JobBuilder, MapContext, ReduceContext, RuntimeError,
    };

    /// A Wire impl whose encoding lies about its length: decoding the
    /// shuffle stream must surface RuntimeError::Codec, not panic.
    #[derive(Debug, Clone, PartialEq)]
    struct Liar;

    impl Wire for Liar {
        fn encode<S: WireSink>(&self, sink: &mut S) {
            // Claims 8 bytes of payload but writes none.
            8u32.encode(sink);
        }
        fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
            let len = u32::decode(buf)? as usize;
            if buf.len() < len {
                return Err(CodecError {
                    context: "liar payload",
                });
            }
            *buf = &buf[len..];
            Ok(Liar)
        }
    }

    #[test]
    fn malformed_wire_impl_is_reported_not_panicking() {
        let mut cfg = ClusterConfig::with_slots(2, 1);
        cfg.task_startup = std::time::Duration::ZERO;
        cfg.job_setup = std::time::Duration::ZERO;
        let cluster = Cluster::new(cfg);
        let result = JobBuilder::new("liar")
            .map(|_s: &u8, ctx: &mut MapContext<u32, Liar>| {
                ctx.emit(1, Liar);
            })
            .reduce(|k, vals, ctx: &mut ReduceContext<u32, u64>| {
                ctx.emit(*k, vals.count() as u64);
            })
            .run(&cluster, &[0u8]);
        assert!(matches!(result, Err(RuntimeError::Codec(_))), "{result:?}");
    }

    /// A Wire impl that encodes and decodes four bytes but claims eight:
    /// `(u32, WideLie)` records say 12 bytes and take 8.
    #[derive(Debug, Clone, PartialEq)]
    struct WideLie(u32);

    impl Wire for WideLie {
        fn encode<S: WireSink>(&self, sink: &mut S) {
            self.0.encode(sink);
        }
        fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
            Ok(WideLie(u32::decode(buf)?))
        }
        const WIDTH: Option<usize> = Some(8);
    }

    #[test]
    fn a_lying_record_width_is_reported_or_unused() {
        // Per map task, `emits` records on two keys, fan-in 2. A run of a
        // multiple of three records is a whole number of claimed 12-byte
        // records, so the merge acts on the width and must report the lie:
        // one unspilled 3-record run, or 24-byte sort buffers that spill
        // every three records (a reducer priced for merge passes). Any other
        // run length rules the width out, and the merge decodes record by
        // record — the right answer: one 2-record run, or 16-byte buffers
        // spilling every two.
        for threads in [1, 2] {
            for (emits, tasks, sort_bytes, reported) in [
                (3, 1, 1 << 20, true),
                (6, 4, 24, true),
                (2, 1, 1 << 20, false),
                (5, 3, 16, false),
            ] {
                let mut cfg = ClusterConfig::with_slots(4, 1);
                cfg.threads = threads;
                cfg.io_sort_bytes = sort_bytes;
                cfg.io_sort_factor = 2;
                let splits: Vec<u32> = (0..tasks).collect();
                let result = JobBuilder::new("wide-liar")
                    .map(move |&t: &u32, ctx: &mut MapContext<u32, WideLie>| {
                        for i in 0..emits {
                            ctx.emit(i % 2, WideLie(t * 10 + i));
                        }
                    })
                    .reduce(|k, vals, ctx: &mut ReduceContext<u32, u32>| {
                        ctx.emit(*k, vals.map(|v| v.0).sum());
                    })
                    .run(&Cluster::new(cfg), &splits);
                let tag = format!("threads {threads}, {tasks} x {emits}");
                if reported {
                    assert!(
                        matches!(result, Err(RuntimeError::Codec(_))),
                        "{tag}: {result:?}"
                    );
                } else {
                    let sum = |k: u32| -> u32 {
                        (0..tasks)
                            .flat_map(|t| (k..emits).step_by(2).map(move |i| t * 10 + i))
                            .sum()
                    };
                    let pairs = result.expect("the width is unused").pairs;
                    assert_eq!(pairs, vec![(0, sum(0)), (1, sum(1))], "{tag}");
                }
            }
        }
    }
}
