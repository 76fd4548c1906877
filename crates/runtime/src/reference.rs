//! The shuffle oracle: what a job's map output must reduce to, computed
//! the obvious way.
//!
//! [`shuffle_reduce`] is the specification the engine in [`crate::job`] is
//! tested against — no cluster, no faults, no spills, no trace, no knobs.
//! It shares two things with the engine: the default partitioner, and the
//! [`Values`] type a reduce function takes, which the oracle builds from
//! each decoded group (a `Vec`), never from the engine's merge.

use crate::codec::Wire;
use crate::job::{default_partition, ReduceContext, Values};

/// Decodes a concatenated pair stream and sorts it by key — stably, so
/// equal keys keep stream order.
fn decode_sorted<K: Wire + Ord, V: Wire>(mut buf: &[u8]) -> Vec<(K, V)> {
    let mut pairs = Vec::new();
    while !buf.is_empty() {
        let key = K::decode(&mut buf).expect("oracle decodes its own encoding");
        let value = V::decode(&mut buf).expect("oracle decodes its own encoding");
        pairs.push((key, value));
    }
    pairs.sort_by(|a, b| a.0.cmp(&b.0));
    pairs
}

/// Calls `f` once per run of equal keys in `pairs`, with the run's values
/// in order.
fn for_each_group<K: Ord, V>(pairs: Vec<(K, V)>, mut f: impl FnMut(&K, Vec<V>)) {
    let mut iter = pairs.into_iter().peekable();
    while let Some((key, first)) = iter.next() {
        let mut group = vec![first];
        while iter.peek().is_some_and(|(k, _)| *k == key) {
            group.push(iter.next().expect("peeked").1);
        }
        f(&key, group);
    }
}

/// Shuffles and reduces `emitted[t]` — the pairs map task `t` emitted, in
/// emission order — across `reducers` default-partitioned reducers: encode
/// every pair into its partition, fold each task's partition through
/// `combiner` if given (decode, stable sort, one fold per key),
/// concatenate partitions in map-task order, stable-sort each globally,
/// group, reduce.
///
/// Returns the reducer output (partition order, key order within a
/// partition, equal keys in map-task then emission order), the wire bytes
/// each partition received, and the records that crossed the shuffle.
#[allow(clippy::type_complexity)] // `combiner` spells out `MapStage::combine_with`'s closure shape
pub fn shuffle_reduce<K: Wire + Ord, V: Wire, OK, OV>(
    emitted: &[Vec<(K, V)>],
    reducers: usize,
    combiner: Option<&dyn Fn(&K, Values<'_, K, V>) -> V>,
    reduce_fn: impl Fn(&K, Values<'_, K, V>, &mut ReduceContext<OK, OV>),
) -> (Vec<(OK, OV)>, Vec<u64>, u64) {
    let mut partitions: Vec<Vec<u8>> = vec![Vec::new(); reducers];
    let mut records = 0u64;
    for task in emitted {
        let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); reducers];
        for (key, value) in task {
            let buf = &mut bufs[default_partition(key, reducers)];
            key.encode(buf);
            value.encode(buf);
        }
        if combiner.is_none() {
            records += task.len() as u64;
        }
        for (partition, buf) in partitions.iter_mut().zip(bufs) {
            let Some(combiner) = combiner else {
                partition.extend_from_slice(&buf);
                continue;
            };
            for_each_group(decode_sorted::<K, V>(&buf), |key, group| {
                key.encode(partition);
                combiner(key, Values::from(group)).encode(partition);
                records += 1;
            });
        }
    }
    let mut ctx = ReduceContext::with_capacity(0);
    for partition in &partitions {
        for_each_group(decode_sorted::<K, V>(partition), |key, group| {
            reduce_fn(key, Values::from(group), &mut ctx);
        });
    }
    let bytes = partitions.iter().map(|p| p.len() as u64).collect();
    (ctx.out, bytes, records)
}
