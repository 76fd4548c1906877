//! The Section-4 framework, written once for *any* bottom-up error-tree
//! DP: Algorithm 1 plus the top-down extraction pass. A DP family plugs in
//! through [`LayeredDp`]; everything else — validation, splits, the four
//! jobs, grouping, hand-offs, global node ids, messages — lives here.
//!
//! **Bottom-up** ([`bottom_up`]). Layer 0's workers each own a base data
//! slice, solve the DP locally and emit the row of their local root — the
//! `M[j]` message whose size is Eq. 6's communication bound — which is all
//! they need to keep ([`LayeredDp::base_root`]). Upper layers
//! group `fan_in` sibling rows per worker (the locality-preserving
//! partitioning of [`LayerPlan`]) and combine them through the worker's
//! mini-tree into the next row, until the row of node `c_1` remains; the
//! instance then resolves `c_0` on the driver.
//!
//! **Top-down** ([`BottomUp::top_down`]). Workers are stateless between
//! jobs (as in Hadoop), so the extraction re-enters each sub-problem as
//! the paper describes ("we re-enter the sub-problem of the topmost
//! sub-tree"): every layer's workers recompute their rows, replay the
//! optimal choices from the carry handed to their root, emit what each
//! node contributes and hand a carry to each child sub-tree's next job.
//!
//! The two phases are separate calls because a caller may want only the
//! first: the root row already answers "how large is the solution", and a
//! DIndirectHaar probe whose answer is "over budget" runs `-layer0` and
//! the `-layer-up` jobs and stops ([`BottomUp::abandon`]) — no `-extract`,
//! no `-extract-base`, no evaluation.

#![warn(clippy::too_many_lines)]

use std::collections::HashMap;

use dwmaxerr_algos::min_haar_space::MhsError;
use dwmaxerr_runtime::codec::{CodecError, CountingSink, Wire, WireSink};
use dwmaxerr_runtime::metrics::{DriverMetrics, Kernel};
use dwmaxerr_runtime::{Cluster, JobBuilder, MapContext, Pipeline, ReduceContext, Values};

use crate::error::CoreError;
use crate::partition::{heap_descendant, LayerPlan};
use crate::splits::{aligned_splits, SliceSplit};

/// One bottom-up error-tree DP, as the framework sees it.
pub(crate) trait LayeredDp: Sync + Sized {
    /// The DP row `M[j]` of one node.
    type Row: Clone + Default + Send + Sync;
    /// What a base worker reports beside its root row (often nothing).
    type Report: Wire + Default + Send;
    /// What a parent hands a child top-down (an incoming value, a budget).
    type Carry: Wire + Clone + Send + Sync;
    /// What a node contributes to the synopsis when it contributes.
    type Pick: Wire + Default + Send;

    /// Names the jobs: `{PREFIX}-layer0`, `-layer-up`, `-extract`, `-extract-base`.
    const PREFIX: &'static str;

    /// Solves one base slice: its report and all rows of its sub-tree in
    /// heap order (`rows[1]` = local root, `[0]` unused), or why it has no
    /// solution. Only the defaults of [`LayeredDp::base_root`] and
    /// [`LayeredDp::base_extract`] call it; a family that overrides both
    /// need not supply it.
    fn base_rows(&self, _slice: &[f64]) -> Result<(Self::Report, Vec<Self::Row>), CoreError> {
        Err(CoreError::Protocol(
            "the family solves its base slices without a row per node",
        ))
    }

    /// What layer 0 ships of [`LayeredDp::base_rows`]: the report and the
    /// root row. A family that can reach the root row without holding
    /// every row below it overrides this.
    fn base_root(&self, slice: &[f64]) -> Result<(Self::Report, Self::Row), CoreError> {
        let (report, mut rows) = self.base_rows(slice)?;
        Ok((report, rows.swap_remove(1)))
    }

    /// `-extract-base`'s work on one slice: re-enters its sub-problem,
    /// replays it from `carry` at the slice root and calls `emit(local
    /// node, pick)` (heap order, `1` = the slice root) for every node that
    /// contributes. Returns the DP cells of the root row, which prices the
    /// task as layer 0's was. The default holds [`LayeredDp::base_rows`] and
    /// steps every node's row; a family that computes the choice of only
    /// the cells the replay reaches overrides it.
    fn base_extract(
        &self,
        slice: &[f64],
        carry: Self::Carry,
        emit: &mut dyn FnMut(u64, Self::Pick),
    ) -> Result<u64, CoreError> {
        let (_, rows) = self.base_rows(slice)?;
        replay(self, &rows, &[], 1, carry, &mut |node, msg| {
            if let Down::Pick(pick) = msg {
                emit(node, pick);
            }
        });
        Ok(Self::cells(&rows[1]))
    }

    /// Declared working set of [`LayeredDp::base_extract`] over `leaves`
    /// values; the engine refuses tasks above the cluster's budget. Layer 0
    /// declares it too, whatever [`LayeredDp::base_root`] holds: a chain
    /// that may go on to `-extract-base` should be refused at its first
    /// job, not after the bottom-up phase has been paid for.
    fn base_memory(&self, _leaves: usize) -> u64 {
        0
    }

    /// Layer 0's reports, in base order, before any [`LayeredDp::combine`];
    /// an error ends the run there.
    fn absorb(&mut self, _reports: Vec<Self::Report>) -> Result<(), CoreError> {
        Ok(())
    }

    /// The row of global node `node` from its children's rows.
    fn combine(&self, node: u64, left: &Self::Row, right: &Self::Row) -> Self::Row;

    /// True when a combined row admits no solution at all.
    fn dead(_row: &Self::Row) -> bool {
        false
    }

    /// The replay rule: a node entered with `carry` contributes the
    /// returned pick (if any) and hands its left and right child the two
    /// returned carries. `children` are the rows `row` was combined from —
    /// `None` above two data leaves, where the carries go nowhere.
    fn step(
        &self,
        row: &Self::Row,
        children: Option<(&Self::Row, &Self::Row)>,
        carry: &Self::Carry,
    ) -> (Option<Self::Pick>, Self::Carry, Self::Carry);

    /// DP cells of one row: what computing it is charged, as
    /// [`Kernel::DpCells`].
    fn cells(row: &Self::Row) -> u64;

    /// The row's wire form (the Eq. 6 message).
    fn encode_row<S: WireSink>(row: &Self::Row, sink: &mut S);

    /// Inverse of [`LayeredDp::encode_row`].
    fn decode_row(buf: &mut &[u8]) -> Result<Self::Row, CodecError>;
}

/// A row on the wire.
struct RowMsg<D: LayeredDp>(D::Row);

impl<D: LayeredDp> Wire for RowMsg<D> {
    fn encode<S: WireSink>(&self, sink: &mut S) {
        D::encode_row(&self.0, sink);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        D::decode_row(buf).map(RowMsg)
    }
}

/// Wire bytes of one row: what a `-layer-up` task reads of each input row.
fn row_bytes<D: LayeredDp>(row: &D::Row) -> u64 {
    let mut sink = CountingSink::new();
    D::encode_row(row, &mut sink);
    sink.bytes as u64
}

/// The upper layers' top-down message, keyed by global node id: what that
/// node contributes, or the carry entering that sub-tree root.
enum Down<P, C> {
    Carry(C),
    Pick(P),
}

impl<P: Wire, C: Wire> Wire for Down<P, C> {
    fn encode<S: WireSink>(&self, sink: &mut S) {
        match self {
            Down::Carry(c) => {
                sink.write(&[0]);
                c.encode(sink);
            }
            Down::Pick(p) => {
                sink.write(&[1]);
                p.encode(sink);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        match u8::decode(buf)? {
            0 => Ok(Down::Carry(C::decode(buf)?)),
            1 => Ok(Down::Pick(P::decode(buf)?)),
            _ => Err(CodecError {
                context: "layered top-down tag",
            }),
        }
    }
}

/// `fan_in` sibling rows: one upper-layer worker's input. The mini-tree
/// above them is rooted at global node `root`, so `rows[i]` is the row of
/// global node `root * rows.len() + i`.
struct Group<R> {
    root: u64,
    rows: Vec<R>,
}

/// Keys under which a worker reports that its sub-problem has no solution:
/// no grid point in some feasible window, or a datum the grid cannot hold.
const FAIL_NODE: u64 = u64::MAX;
const OFF_GRID_NODE: u64 = u64::MAX - 1;

/// The identity reducer: forwards its records unchanged (every reducer of
/// the framework, and the jobs whose selection happens driver-side).
pub(crate) fn forward<K: Wire + Ord + Clone, V: Wire>(
    key: &K,
    vals: Values<'_, K, V>,
    ctx: &mut ReduceContext<K, V>,
) {
    for v in vals {
        ctx.emit(key.clone(), v);
    }
}

/// The key under which a base worker reports why its slice has no
/// solution.
fn failure_key(e: &CoreError) -> u64 {
    match e {
        CoreError::Mhs(MhsError::OffGrid) => OFF_GRID_NODE,
        _ => FAIL_NODE,
    }
}

/// The failure a worker reported among a job's records, if any — bad data
/// before a bad grid, whichever slice hit it first, because a caller
/// searching over ε retries only the latter.
fn reported_failure<T>(pairs: &[(u64, T)]) -> Result<(), CoreError> {
    for (key, failure) in [
        (OFF_GRID_NODE, MhsError::OffGrid),
        (FAIL_NODE, MhsError::DeltaTooCoarse),
    ] {
        if pairs.iter().any(|&(node, _)| node == key) {
            return Err(CoreError::Mhs(failure));
        }
    }
    Ok(())
}

/// Driver glue after a bottom-up job: the layer's records in node order
/// (a layer of `w` rows holds global nodes `w .. 2w`), or the failure a
/// worker reported.
fn sorted_layer<T>(mut pairs: Vec<(u64, T)>) -> Result<impl Iterator<Item = T>, CoreError> {
    reported_failure(&pairs)?;
    pairs.sort_unstable_by_key(|&(node, _)| node);
    Ok(pairs.into_iter().map(|(_, record)| record))
}

/// DP cells a base sub-tree of `leaves` leaves is charged: one row per
/// internal node, each as wide as its root row of `root_cells` — the same
/// count whether a task walks the frontier (layer 0) or keeps every row
/// (extraction).
fn base_cells(leaves: usize, root_cells: u64) -> u64 {
    (leaves as u64 - 1) * root_cells
}

/// All rows of the mini-tree above `group.rows`, heap order (`[1]` = the
/// mini root, index 0 unused), with the DP cells they took.
fn mini_tree<D: LayeredDp>(dp: &D, group: &Group<D::Row>) -> (Vec<D::Row>, u64) {
    let f = group.rows.len();
    let mut rows = vec![D::Row::default(); f];
    for i in (1..f).rev() {
        let node = heap_descendant(group.root, i);
        rows[i] = if 2 * i < f {
            dp.combine(node, &rows[2 * i], &rows[2 * i + 1])
        } else {
            dp.combine(node, &group.rows[2 * i - f], &group.rows[2 * i - f + 1])
        };
    }
    let cells = rows[1..].iter().map(D::cells).sum();
    (rows, cells)
}

/// Replays the optimal choices down the heap `rows` rooted at global node
/// `root`, entered with `carry`. `inputs` are the rows below the heap's
/// lowest level: a group's input rows, each handed its `Down::Carry`, or
/// empty for a base sub-tree, which sits on data leaves.
fn replay<D: LayeredDp>(
    dp: &D,
    rows: &[D::Row],
    inputs: &[D::Row],
    root: u64,
    carry: D::Carry,
    emit: &mut dyn FnMut(u64, Down<D::Pick, D::Carry>),
) {
    let m = rows.len();
    let mut stack = vec![(1usize, carry)];
    while let Some((i, carry)) = stack.pop() {
        let children = if 2 * i < m {
            Some((&rows[2 * i], &rows[2 * i + 1]))
        } else {
            inputs.get(2 * i - m).zip(inputs.get(2 * i - m + 1))
        };
        let (pick, left, right) = dp.step(&rows[i], children, &carry);
        if let Some(pick) = pick {
            emit(heap_descendant(root, i), Down::Pick(pick));
        }
        if 2 * i < m {
            stack.push((2 * i, left));
            stack.push((2 * i + 1, right));
        } else if !inputs.is_empty() {
            let child = heap_descendant(root, 2 * i);
            emit(child, Down::Carry(left));
            emit(child + 1, Down::Carry(right));
        }
    }
}

/// Takes the carry the layer above handed to sub-tree root `node`.
fn hand_off<C>(carries: &mut HashMap<u64, C>, node: u64) -> Result<C, CoreError> {
    carries.remove(&node).ok_or(CoreError::Protocol(
        "no top-down hand-off reached a sub-tree root",
    ))
}

/// Picks as `(global node id, pick)`, the base splits, both phases' ledger.
pub(crate) type Extracted<P> = (Vec<(u64, P)>, Vec<SliceSplit>, DriverMetrics);

/// The finished bottom-up phase, ready to be re-entered top-down.
pub(crate) struct BottomUp<'c, D: LayeredDp> {
    /// The row of node `c_1`, from which the instance resolves `c_0`.
    pub(crate) root: D::Row,
    pipe: Pipeline<'c, ()>,
    splits: Vec<SliceSplit>,
    /// The groups of each upper layer, bottom layer first.
    layers: Vec<Vec<Group<D::Row>>>,
}

/// Algorithm 1 over `data`. `Ok(None)` when there is no tree to layer
/// (`data.len() < 2`): the caller answers with its centralized solver.
pub(crate) fn bottom_up<'c, D: LayeredDp>(
    cluster: &'c Cluster,
    data: &[f64],
    base_leaves: usize,
    fan_in: usize,
    dp: &mut D,
) -> Result<Option<BottomUp<'c, D>>, CoreError> {
    let n = data.len();
    dwmaxerr_wavelet::error::ensure_pow2(n)?;
    if n < 2 {
        return Ok(None);
    }
    let (base_leaves, fan_in) = (base_leaves.clamp(2, n), fan_in.max(2));
    let plan = LayerPlan::new(n, base_leaves, fan_in)?;
    let splits = aligned_splits(data, base_leaves);
    let num_base = plan.base_count() as u64;

    let mut layer: Vec<D::Row> = Vec::new();
    let mut pipe = {
        let dp = &*dp;
        let memory = dp.base_memory(base_leaves);
        let job = JobBuilder::new(format!("{}-layer0", D::PREFIX))
            .map(
                |split: &SliceSplit, ctx: &mut MapContext<u64, (D::Report, RowMsg<D>)>| match dp
                    .base_root(split.slice())
                {
                    Ok((report, root)) => {
                        ctx.charge(Kernel::DpCells, base_cells(split.len(), D::cells(&root)));
                        ctx.emit(num_base + u64::from(split.id), (report, RowMsg(root)))
                    }
                    Err(e) => ctx.emit(
                        failure_key(&e),
                        (D::Report::default(), RowMsg(D::Row::default())),
                    ),
                },
            )
            .input_bytes(SliceSplit::bytes)
            .task_memory(move |_| memory)
            .reduce(forward);
        Pipeline::on(cluster).stage(&job, &splits)?
    }
    .try_then(|((), pairs)| -> Result<(), CoreError> {
        let (reports, rows) = sorted_layer(pairs)?
            .map(|(report, RowMsg(row))| (report, row))
            .unzip();
        layer = rows;
        dp.absorb(reports)
    })?;

    let dp = &*dp;
    let mut layers = Vec::new();
    for width in plan.upper_layer_row_counts() {
        debug_assert_eq!(layer.len(), width);
        let f = fan_in.min(width);
        let mut rows = std::mem::take(&mut layer).into_iter();
        let groups: Vec<Group<D::Row>> = (width / f..2 * width / f)
            .map(|root| Group {
                root: root as u64,
                rows: rows.by_ref().take(f).collect(),
            })
            .collect();
        let job = JobBuilder::new(format!("{}-layer-up", D::PREFIX))
            .map(
                |group: &Group<D::Row>, ctx: &mut MapContext<u64, RowMsg<D>>| {
                    let (mut rows, cells) = mini_tree(dp, group);
                    ctx.charge(Kernel::DpCells, cells);
                    let root = rows.swap_remove(1);
                    let key = if D::dead(&root) {
                        FAIL_NODE
                    } else {
                        group.root
                    };
                    ctx.emit(key, RowMsg(root));
                },
            )
            .input_bytes(|g: &Group<D::Row>| g.rows.iter().map(row_bytes::<D>).sum())
            .reduce(forward);
        pipe = pipe
            .stage(&job, &groups)?
            .try_then(|((), pairs)| -> Result<(), CoreError> {
                layer = sorted_layer(pairs)?.map(|RowMsg(row)| row).collect();
                Ok(())
            })?;
        layers.push(groups);
    }
    let root = layer
        .pop()
        .ok_or(CoreError::Protocol("bottom-up produced no root row"))?;
    Ok(Some(BottomUp {
        root,
        pipe,
        splits,
        layers,
    }))
}

impl<D: LayeredDp> BottomUp<'_, D> {
    /// The ledger of a run that ends here: its caller read what it wanted
    /// off [`BottomUp::root`] and extracts nothing.
    pub(crate) fn abandon(self) -> DriverMetrics {
        self.pipe.into_metrics()
    }

    /// The extraction pass: node `c_1` is entered with `root_carry`.
    pub(crate) fn top_down(
        self,
        dp: &D,
        root_carry: D::Carry,
    ) -> Result<Extracted<D::Pick>, CoreError> {
        let mut picks: Vec<(u64, D::Pick)> = Vec::new();
        let mut carries: HashMap<u64, D::Carry> = HashMap::from([(1, root_carry)]);
        let mut pipe = self.pipe;
        for groups in self.layers.into_iter().rev() {
            let entered = groups
                .into_iter()
                .map(|g| hand_off(&mut carries, g.root).map(|carry| (g, carry)))
                .collect::<Result<Vec<_>, _>>()?;
            let job = JobBuilder::new(format!("{}-extract", D::PREFIX))
                .map(
                    |(group, carry): &(Group<D::Row>, D::Carry),
                     ctx: &mut MapContext<u64, Down<D::Pick, D::Carry>>| {
                        let (rows, cells) = mini_tree(dp, group);
                        ctx.charge(Kernel::DpCells, cells);
                        replay(
                            dp,
                            &rows,
                            &group.rows,
                            group.root,
                            carry.clone(),
                            &mut |node, msg| ctx.emit(node, msg),
                        );
                    },
                )
                .reduce(forward);
            pipe = pipe.stage(&job, &entered)?.then(|((), pairs)| {
                for (node, msg) in pairs {
                    match msg {
                        Down::Pick(pick) => picks.push((node, pick)),
                        Down::Carry(carry) => {
                            carries.insert(node, carry);
                        }
                    }
                }
            });
        }

        let num_base = self.splits.len() as u64;
        // The one task that holds every row of a base sub-tree.
        let memory = dp.base_memory(self.splits.first().map_or(0, SliceSplit::len));
        let base_carries = (0..num_base)
            .map(|j| hand_off(&mut carries, num_base + j))
            .collect::<Result<Vec<_>, _>>()?;
        let job = JobBuilder::new(format!("{}-extract-base", D::PREFIX))
            .map(|split: &SliceSplit, ctx: &mut MapContext<u64, D::Pick>| {
                let root = num_base + u64::from(split.id);
                let carry = base_carries[split.id as usize].clone();
                let mut emit = |node, pick| ctx.emit(heap_descendant(root, node as usize), pick);
                match dp.base_extract(split.slice(), carry, &mut emit) {
                    Ok(root_cells) => {
                        ctx.charge(Kernel::DpCells, base_cells(split.len(), root_cells));
                    }
                    Err(e) => ctx.emit(failure_key(&e), D::Pick::default()),
                }
            })
            .input_bytes(SliceSplit::bytes)
            .task_memory(move |_| memory)
            .reduce(forward);
        let ((), metrics) = pipe
            .stage(&job, &self.splits)?
            .try_then(|((), pairs)| -> Result<(), CoreError> {
                reported_failure(&pairs)?;
                picks.extend(pairs);
                Ok(())
            })?
            .finish();
        Ok((picks, self.splits, metrics))
    }
}

/// Asserts that the first `-layer-up` job over `data` declares as its input
/// exactly the encoded bytes of layer 0's root rows — the Eq. 6 messages
/// it reads.
#[cfg(test)]
pub(crate) fn assert_layer_up_reads_the_encoded_roots<D: LayeredDp>(
    dp: &mut D,
    data: &[f64],
    base_leaves: usize,
    fan_in: usize,
) {
    let encoded: usize = aligned_splits(data, base_leaves)
        .iter()
        .map(|split| {
            let (_, root) = dp.base_root(split.slice()).expect("a solvable slice");
            dwmaxerr_runtime::codec::encoded(&RowMsg::<D>(root)).len()
        })
        .sum();
    let cluster = Cluster::new(dwmaxerr_runtime::ClusterConfig::with_slots(4, 2));
    let metrics = bottom_up(&cluster, data, base_leaves, fan_in, dp)
        .unwrap()
        .expect("the data is layered")
        .abandon();
    let job = &metrics.jobs[1];
    assert_eq!(job.name, format!("{}-layer-up", D::PREFIX));
    assert_eq!(job.input_bytes, encoded as u64, "{}", D::PREFIX);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwmaxerr_runtime::{ClusterConfig, RuntimeError, TraceEventKind};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    /// A DP that only counts: a node's row is the number of data leaves
    /// under it, the carry entering a node is the global id that node
    /// should have, and every node contributes that carry.
    struct Census {
        n: u64,
        /// What a base task declares, settable between the phases.
        memory: AtomicU64,
        /// Why every base slice has no solution from now on, if it has
        /// none; settable between the phases.
        failure: Mutex<Option<CoreError>>,
    }

    impl Census {
        fn over(n: usize) -> Self {
            Census {
                n: n as u64,
                memory: AtomicU64::new(0),
                failure: Mutex::new(None),
            }
        }
    }

    impl LayeredDp for Census {
        type Row = u64;
        type Report = ();
        type Carry = u64;
        type Pick = u64;
        const PREFIX: &'static str = "census";

        fn base_rows(&self, slice: &[f64]) -> Result<((), Vec<u64>), CoreError> {
            if let Some(e) = self.failure.lock().unwrap().clone() {
                return Err(e);
            }
            let m = slice.len();
            let leaves = |i: usize| if i == 0 { 0 } else { (m >> i.ilog2()) as u64 };
            Ok(((), (0..m).map(leaves).collect()))
        }

        fn base_memory(&self, _leaves: usize) -> u64 {
            self.memory.load(Ordering::Relaxed)
        }

        fn combine(&self, node: u64, left: &u64, right: &u64) -> u64 {
            assert_eq!(left + right, self.n >> node.ilog2(), "node {node}");
            left + right
        }

        fn step(
            &self,
            row: &u64,
            children: Option<(&u64, &u64)>,
            id: &u64,
        ) -> (Option<u64>, u64, u64) {
            assert_eq!(
                *row,
                self.n >> id.ilog2(),
                "node {id} entered with the wrong row"
            );
            assert_eq!(children.map_or(2, |(l, r)| l + r), *row, "node {id}");
            (Some(*id), 2 * id, 2 * id + 1)
        }

        fn cells(_: &u64) -> u64 {
            1
        }

        fn encode_row<S: WireSink>(row: &u64, sink: &mut S) {
            row.encode(sink);
        }

        fn decode_row(buf: &mut &[u8]) -> Result<u64, CodecError> {
            u64::decode(buf)
        }
    }

    fn test_cluster() -> Cluster {
        let mut cfg = ClusterConfig::with_slots(4, 2);
        cfg.task_startup = std::time::Duration::from_micros(10);
        cfg.job_setup = std::time::Duration::from_micros(10);
        Cluster::new(cfg)
    }

    #[test]
    fn every_node_is_stepped_once_with_its_global_id() {
        let cluster = test_cluster();
        for n in [2usize, 4, 16, 64] {
            let data = vec![0.0; n];
            let bases = (1..=n.ilog2()).map(|k| 1usize << k);
            for (s, fan_in) in bases.flat_map(|s| [2, 4, 64].map(|f| (s, f))) {
                let tag = format!("n={n} base_leaves={s} fan_in={fan_in}");
                let mut dp = Census::over(n);
                let up = bottom_up(&cluster, &data, s, fan_in, &mut dp)
                    .unwrap()
                    .expect("n >= 2 is layered");
                assert_eq!(up.root, n as u64, "{tag}");
                let upper = up.layers.len();
                let (mut picks, splits, metrics) = up.top_down(&dp, 1).unwrap();
                assert_eq!(splits.len(), n / s, "{tag}");

                // Every internal node 1..n stepped exactly once, under the
                // id the hand-offs carried down to it — which also means
                // every base root received its hand-off.
                picks.sort_unstable();
                let expected: Vec<(u64, u64)> = (1..n as u64).map(|g| (g, g)).collect();
                assert_eq!(picks, expected, "{tag}");

                let plan = LayerPlan::new(n, s, fan_in).unwrap();
                assert_eq!(upper + 1, plan.stages(), "{tag}");
                let names: Vec<&str> = metrics.jobs.iter().map(|j| j.name.as_str()).collect();
                let mut want = vec!["census-layer0"];
                want.extend(std::iter::repeat_n("census-layer-up", upper));
                want.extend(std::iter::repeat_n("census-extract", upper));
                want.push("census-extract-base");
                assert_eq!(names, want, "{tag}");
            }
        }
    }

    #[test]
    fn both_base_jobs_declare_the_base_working_set() {
        let mut cfg = ClusterConfig::with_slots(4, 2);
        cfg.task_memory_bytes = 1000;
        let cluster = Cluster::new(cfg);
        let oom = |needed| {
            CoreError::Runtime(RuntimeError::TaskOutOfMemory {
                needed,
                available: 1000,
            })
        };
        let mut dp = Census::over(16);
        dp.memory = AtomicU64::new(1001);
        let refused = bottom_up(&cluster, &[0.0; 16], 4, 2, &mut dp).map(|up| up.is_some());
        assert_eq!(refused, Err(oom(1001)), "layer 0");

        // `-extract-base` is the task that holds every row of a base
        // sub-tree: a declaration that grows between the phases stops it.
        dp.memory = AtomicU64::new(1000);
        let up = bottom_up(&cluster, &[0.0; 16], 4, 2, &mut dp)
            .unwrap()
            .expect("16 values are layered");
        dp.memory.store(1002, Ordering::Relaxed);
        let refused = up.top_down(&dp, 1).map(|(picks, ..)| picks.len());
        assert_eq!(refused, Err(oom(1002)), "extract-base");
        let last_run = cluster
            .trace_events()
            .into_iter()
            .rev()
            .find_map(|e| match e.kind {
                TraceEventKind::JobBegin { job, .. } => Some(job),
                _ => None,
            });
        assert_eq!(last_run.as_deref(), Some("census-extract"));
    }

    #[test]
    fn a_failed_base_extraction_reaches_the_driver_as_a_typed_error() {
        // Layer 0 solved every slice; `-extract-base` re-enters them and
        // finds none solvable. Its tasks report the failure under the keys
        // layer 0 uses, and the driver returns the same error — bad data
        // before a bad grid.
        let cluster = test_cluster();
        for failure in [MhsError::OffGrid, MhsError::DeltaTooCoarse] {
            let mut dp = Census::over(16);
            let up = bottom_up(&cluster, &[0.0; 16], 4, 2, &mut dp)
                .unwrap()
                .expect("16 values are layered");
            *dp.failure.lock().unwrap() = Some(CoreError::Mhs(failure.clone()));
            let got = up.top_down(&dp, 1).map(|(picks, ..)| picks.len());
            assert_eq!(got, Err(CoreError::Mhs(failure)));
        }
        // Layer 0 reports the same way.
        let mut dp = Census::over(16);
        *dp.failure.lock().unwrap() = Some(CoreError::Mhs(MhsError::OffGrid));
        let got = bottom_up(&cluster, &[0.0; 16], 4, 2, &mut dp).map(|up| up.is_some());
        assert_eq!(got, Err(CoreError::Mhs(MhsError::OffGrid)));
    }

    #[test]
    fn one_value_is_not_layered_and_bad_shapes_are_typed_errors() {
        let cluster = test_cluster();
        let mut dp = Census::over(1);
        assert!(bottom_up(&cluster, &[5.0], 8, 2, &mut dp)
            .unwrap()
            .is_none());
        for (data, s, f) in [
            (vec![], 2, 2),
            (vec![0.0; 6], 2, 2),
            (vec![0.0; 8], 3, 2),
            (vec![0.0; 8], 2, 3),
        ] {
            let got = bottom_up(&cluster, &data, s, f, &mut dp).map(|up| up.is_some());
            assert!(
                matches!(got, Err(CoreError::Wavelet(_))),
                "{data:?} {s} {f}: {got:?}"
            );
        }
    }

    #[test]
    fn a_missing_hand_off_is_a_protocol_error() {
        let mut carries: HashMap<u64, u64> = HashMap::from([(2, 7)]);
        assert_eq!(hand_off(&mut carries, 2), Ok(7));
        assert!(matches!(
            hand_off(&mut carries, 2),
            Err(CoreError::Protocol(_))
        ));
    }

    #[test]
    fn mini_tree_global_ids() {
        // Rows for nodes 8..12 (fan_in 4): mini root = node 2, its children
        // nodes 4 and 5.
        assert_eq!(heap_descendant(8 / 4, 1), 2);
        assert_eq!(heap_descendant(8 / 4, 2), 4);
        assert_eq!(heap_descendant(8 / 4, 3), 5);
    }
}
