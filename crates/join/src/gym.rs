//! GYM: distributed Yannakakis over a GHD (slides 64–95).
//!
//! The Yannakakis algorithm evaluates an acyclic query in `O(IN + OUT)`
//! by an upward semijoin phase, a downward semijoin phase, and a join
//! phase over a width-1 join tree (slides 64–77). GYM distributes each
//! phase:
//!
//! * [`gym`] with `optimized = false` — **vanilla GYM** (slides 80–89):
//!   every semijoin and every join is its own communication round, giving
//!   `r = 3(n−1) = O(n)` rounds at load `O((IN+OUT)/p)`;
//! * [`gym`] with `optimized = true` — **optimized GYM**
//!   (slides 90–94): all semijoins of one tree level run in the same
//!   round (a parent with several children takes one filter round plus
//!   one intersection round), and the join phase absorbs all children of
//!   a node in one round on a per-node HyperCube grid — `r = O(d)` for a
//!   depth-`d` tree (slide 94's `r = 4` for the flat star);
//! * [`gym_ghd`] — **generalized GYM** (slide 95): materialize the bags
//!   of a width-`w` GHD with per-bag HyperCubes (one round), then run
//!   optimized GYM over the bag tree: `r = O(d)`,
//!   `L = O((IN^w + OUT)/p)` — the width/depth trade-off.
//!
//! Tuples travel as [`RowBatch`] rows and semijoin keys as key-only
//! rows; each server's local phase runs in [`Cluster::map`] on
//! [`Relation`] fragments with the shared [`JoinStep`] / [`KeyIndex`]
//! kernel.
//!
//! GYM beats the one-round algorithms whenever
//! `OUT < p^{1−1/τ*} · IN` (slide 78) — experiment E11.

use crate::common::{append_by_tag, by_tag, scatter, JoinRun};
use crate::local::{to_var_order, JoinStep, KeyIndex};
use crate::plans::combined_hash;
use parqp_data::{FastMap, Relation, Value};
use parqp_mpc::hash::splitmix64;
use parqp_mpc::{Cluster, Exchange, Grid, HashFamily, LoadReport, RowBatch};
use parqp_query::{Ghd, Query, Var};

/// A distributed intermediate relation: per-server fragments plus the
/// variable schema (column order) they share.
#[derive(Debug, Clone)]
struct Dist {
    schema: Vec<Var>,
    parts: Vec<Relation>,
}

impl Dist {
    fn from_relation(rel: &Relation, vars: &[Var], p: usize) -> Self {
        Self {
            schema: vars.to_vec(),
            parts: scatter(rel, p),
        }
    }

    fn arity(&self) -> usize {
        self.schema.len()
    }

    fn total(&self) -> usize {
        self.parts.iter().map(Relation::len).sum()
    }

    fn rows(&self) -> impl Iterator<Item = &[Value]> + '_ {
        self.parts.iter().flatten()
    }
}

/// Where a row's key lands in a semijoin or join round: the combined
/// hash of its key columns, xor a per-pair salt (0 in vanilla rounds),
/// mod `p`.
#[derive(Clone, Copy)]
struct Route<'h> {
    h: &'h HashFamily,
    salt: u64,
}

impl Route<'_> {
    fn dest(self, row: &[Value], cols: &[usize], p: usize) -> usize {
        ((combined_hash(self.h, row, cols) ^ self.salt) % p as u64) as usize
    }

    /// Send every row of `dist`, tagged `tag`, to the server its key
    /// hashes to; `sent(dest, instance)` sees each one, with its
    /// instance id `origin server ≪ 32 | index`.
    fn send_rows(
        self,
        ex: &mut Exchange<'_, RowBatch>,
        tag: u32,
        (dist, cols): (&Dist, &[usize]),
        mut sent: impl FnMut(usize, u64),
    ) {
        let p = ex.p();
        for (sid, part) in dist.parts.iter().enumerate() {
            for (idx, row) in part.iter().enumerate() {
                let dest = self.dest(row, cols, p);
                ex.send_row(dest, tag, row);
                sent(dest, ((sid as u64) << 32) | idx as u64);
            }
        }
    }

    /// Send each origin server's distinct keys of `dist` on `cols`, as
    /// key-only rows tagged `tag` in order of first occurrence, to the
    /// servers the keys hash to.
    fn send_keys(self, ex: &mut Exchange<'_, RowBatch>, tag: u32, (dist, cols): (&Dist, &[usize])) {
        let p = ex.p();
        let mut key = Vec::with_capacity(cols.len());
        for part in &dist.parts {
            let index = KeyIndex::new(part, cols);
            for (i, row) in part.iter().enumerate() {
                // A row brings a new key iff its key's chain starts at it.
                if index.positions(row, cols).next() == Some(i) {
                    key.clear();
                    key.extend(cols.iter().map(|&c| row[c]));
                    ex.send_row(self.dest(row, cols, p), tag, &key);
                }
            }
        }
    }
}

/// Regroup per-server, per-slot results into per-slot, per-server ones.
fn transpose<T>(per_server: Vec<Vec<T>>, slots: usize) -> Vec<Vec<T>> {
    let mut out: Vec<Vec<T>> = (0..slots)
        .map(|_| Vec::with_capacity(per_server.len()))
        .collect();
    for server in per_server {
        for (slot, item) in out.iter_mut().zip(server) {
            slot.push(item);
        }
    }
    out
}

/// One distributed semijoin round: `left ⋉ right`, both repartitioned by
/// the hash of their shared variables. Returns the filtered left.
fn semijoin_round(cluster: &mut Cluster, h: &HashFamily, left: Dist, right: &Dist) -> Dist {
    let p = cluster.p();
    let step = JoinStep::between(&left.schema, &right.schema);
    if step.left_key.is_empty() {
        // Disconnected: pure emptiness filter, no data movement needed
        // beyond a 1-bit flag we do not charge.
        if right.total() == 0 {
            return Dist {
                parts: vec![Relation::new(left.arity()); p],
                schema: left.schema,
            };
        }
        return left;
    }
    let route = Route { h, salt: 0 };
    let mut ex = cluster.exchange::<RowBatch>();
    route.send_rows(&mut ex, 0, (&left, &step.left_key), |_, _| {});
    route.send_keys(&mut ex, 1, (right, &step.right_key));
    let inboxes = ex.finish();

    let arities = [left.arity(), step.right_key.len()];
    let parts = cluster.map(inboxes, |_, inbox| {
        let [rows, keys] = by_tag(inbox, arities);
        let index = KeyIndex::keys(&keys);
        rows.filter(|row| index.contains(row, &step.left_key))
    });
    Dist {
        schema: left.schema,
        parts,
    }
}

/// One distributed binary join round: repartition both sides by the hash
/// of the shared variables (Cartesian grid if none) and join locally.
fn join_round(cluster: &mut Cluster, h: &HashFamily, left: Dist, right: Dist) -> Dist {
    let p = cluster.p();
    let step = JoinStep::between(&left.schema, &right.schema);
    let mut ex = cluster.exchange::<RowBatch>();
    if step.left_key.is_empty() {
        let (p1, p2) = crate::twoway::product_grid(left.total(), right.total(), p);
        let grid = Grid::new(vec![p1, p2]);
        for (idx, row) in left.rows().enumerate() {
            let band = (h.digest(0, idx as u64) % p1 as u64) as usize;
            for dest in grid.matching(&[Some(band), None]) {
                ex.send_row(dest, 0, row);
            }
        }
        for (idx, row) in right.rows().enumerate() {
            let band = (h.digest(0, !(idx as u64)) % p2 as u64) as usize;
            for dest in grid.matching(&[None, Some(band)]) {
                ex.send_row(dest, 1, row);
            }
        }
    } else {
        let route = Route { h, salt: 0 };
        route.send_rows(&mut ex, 0, (&left, &step.left_key), |_, _| {});
        route.send_rows(&mut ex, 1, (&right, &step.right_key), |_, _| {});
    }
    let inboxes = ex.finish();

    let arities = [left.arity(), right.arity()];
    let parts = cluster.map(inboxes, |_, inbox| {
        let [l, r] = by_tag(inbox, arities);
        step.apply(&l, &r)
    });
    Dist {
        schema: step.out_vars(&left.schema, &right.schema),
        parts,
    }
}
/// GYM over a width-1 join tree: `optimized = false` is vanilla
/// (`r = O(n)`), `optimized = true` runs per-level (`r = O(d)`).
///
/// ```
/// use parqp_join::gym::gym;
/// use parqp_query::{Ghd, Query};
/// use parqp_data::generate;
///
/// let q = Query::star(4);
/// let tree = Ghd::star_flat(&q);
/// let rels: Vec<_> = (0..4).map(|i| generate::uniform(2, 100, 20, i)).collect();
/// let vanilla = gym(&q, &rels, &tree, 8, 7, false);
/// let optimized = gym(&q, &rels, &tree, 8, 7, true);
/// assert_eq!(vanilla.report.num_rounds(), 9);   // slide 89
/// assert_eq!(optimized.report.num_rounds(), 4); // slide 94
/// assert_eq!(vanilla.gathered().canonical(), optimized.gathered().canonical());
/// ```
///
/// # Panics
/// Panics if the tree is not a valid width-1 join tree of `query` with
/// one bag per atom.
pub fn gym(
    query: &Query,
    rels: &[Relation],
    tree: &Ghd,
    p: usize,
    seed: u64,
    optimized: bool,
) -> JoinRun {
    assert_eq!(rels.len(), query.num_atoms(), "one relation per atom");
    tree.validate(query).expect("invalid GHD");
    assert_eq!(
        tree.width(),
        1,
        "gym requires a width-1 join tree; use gym_ghd"
    );
    assert_eq!(tree.bags.len(), query.num_atoms(), "one bag per atom");

    let mut cluster = Cluster::new(p);
    let h = HashFamily::new(seed, 4);
    let states: Vec<Dist> = tree
        .bags
        .iter()
        .map(|bag| {
            let a = bag.atoms[0];
            Dist::from_relation(&rels[a], &query.atoms()[a].vars, p)
        })
        .collect();

    let final_dist = run_yannakakis(&mut cluster, &h, tree, states, optimized);
    finish(query, final_dist, cluster.report())
}

/// Generalized GYM over any GHD (slide 95): one round of per-bag
/// HyperCube materialization, then optimized GYM over the bag tree.
/// Bag relations are materialized under set semantics.
///
/// A bag whose cover atoms are *disconnected* (e.g. the internal bags of
/// [`Ghd::chain_balanced`]) materializes their Cartesian product — the
/// `IN^w` term of slide 95's load bound is real. Size inputs
/// accordingly.
///
/// # Panics
/// Panics if the GHD is invalid for `query`.
pub fn gym_ghd(query: &Query, rels: &[Relation], ghd: &Ghd, p: usize, seed: u64) -> JoinRun {
    ghd.validate(query).expect("invalid GHD");
    let nbags = ghd.bags.len();

    // Materialize every bag: single-atom bags are free (placement);
    // multi-atom bags run a HyperCube on their cover in parallel blocks.
    let multi: Vec<usize> = (0..nbags)
        .filter(|&b| ghd.bags[b].atoms.len() > 1)
        .collect();
    let block = if multi.is_empty() {
        p
    } else {
        (p / multi.len()).max(1)
    };
    let mut mat_reports = Vec::new();
    let mut bag_rels: Vec<Option<Relation>> = vec![None; nbags];
    for (bi, bag) in ghd.bags.iter().enumerate() {
        if bag.atoms.len() == 1 {
            let a = bag.atoms[0];
            // Project the atom onto the bag variable order.
            let cols: Vec<usize> = bag
                .vars
                .iter()
                .map(|v| {
                    query.atoms()[a]
                        .vars
                        .iter()
                        .position(|av| av == v)
                        .expect("λ covers")
                })
                .collect();
            bag_rels[bi] = Some(rels[a].project(&cols));
        } else {
            let sub_atoms: Vec<parqp_query::Atom> = bag
                .atoms
                .iter()
                .map(|&a| query.atoms()[a].clone())
                .collect();
            let sub_rels: Vec<Relation> = bag.atoms.iter().map(|&a| rels[a].clone()).collect();
            // Renumber variables for the sub-query.
            let mut sub_vars: Vec<Var> = sub_atoms.iter().flat_map(|a| a.vars.clone()).collect();
            sub_vars.sort_unstable();
            sub_vars.dedup();
            let remap = |v: Var| sub_vars.iter().position(|&sv| sv == v).expect("in sub");
            let sub_q = Query::new(
                sub_vars.len(),
                sub_atoms
                    .iter()
                    .map(|a| {
                        parqp_query::Atom::new(
                            a.name.clone(),
                            a.vars.iter().map(|&v| remap(v)).collect(),
                        )
                    })
                    .collect(),
            );
            let run = if sub_rels.iter().any(Relation::is_empty) {
                JoinRun {
                    outputs: vec![Relation::new(sub_vars.len()); block],
                    report: LoadReport::idle(block, 1),
                }
            } else {
                crate::multiway::hypercube(&sub_q, &sub_rels, block, seed ^ bi as u64)
            };
            mat_reports.push(run.report.clone());
            // Project the sub-join onto the bag vars, deduplicated.
            let cols: Vec<usize> = bag.vars.iter().map(|&v| remap(v)).collect();
            bag_rels[bi] = Some(run.gathered().project(&cols).canonical());
        }
    }
    let mat_report = if mat_reports.is_empty() {
        None
    } else {
        Some(LoadReport::parallel(&mat_reports).folded(p))
    };

    // Synthetic acyclic query over the bag relations.
    let bag_query = Query::new(
        query.num_vars(),
        ghd.bags
            .iter()
            .enumerate()
            .map(|(bi, bag)| parqp_query::Atom::new(format!("B{bi}"), bag.vars.clone()))
            .collect(),
    );
    let bag_tree = Ghd {
        bags: ghd
            .bags
            .iter()
            .enumerate()
            .map(|(bi, bag)| parqp_query::Bag {
                vars: bag.vars.clone(),
                atoms: vec![bi],
            })
            .collect(),
        parent: ghd.parent.clone(),
    };

    let mut cluster = Cluster::new(p);
    let h = HashFamily::new(seed ^ 0x6d79, 4);
    let states: Vec<Dist> = (0..nbags)
        .map(|bi| {
            Dist::from_relation(
                bag_rels[bi].as_ref().expect("materialized"),
                &ghd.bags[bi].vars,
                p,
            )
        })
        .collect();
    let final_dist = run_yannakakis(&mut cluster, &h, &bag_tree, states, true);
    let mut run = finish(&bag_query, final_dist, cluster.report());
    if let Some(mat) = mat_report {
        run.report = LoadReport::sequential(&[mat, run.report]);
    }
    run
}

/// The three Yannakakis phases over already-distributed bag states.
fn run_yannakakis(
    cluster: &mut Cluster,
    h: &HashFamily,
    tree: &Ghd,
    mut states: Vec<Dist>,
    optimized: bool,
) -> Dist {
    let order = tree.topological_order();
    let depth_of = {
        let mut d = vec![0usize; tree.bags.len()];
        for &b in &order {
            if let Some(par) = tree.parent[b] {
                d[b] = d[par] + 1;
            }
        }
        d
    };
    let max_depth = depth_of.iter().copied().max().unwrap_or(0);

    if optimized {
        // Upward, per level (deepest first): filter round (+ intersection
        // round when some parent has several children).
        for level in (1..=max_depth).rev() {
            let edges: Vec<(usize, usize)> = order
                .iter()
                .filter(|&&b| depth_of[b] == level)
                .filter_map(|&b| tree.parent[b].map(|par| (par, b)))
                .collect();
            if edges.is_empty() {
                continue;
            }
            upward_level(cluster, h, &mut states, &edges);
        }
        // Downward, per level: every bag filtered by its parent, 1 round.
        for level in 1..=max_depth {
            let edges: Vec<(usize, usize)> = order
                .iter()
                .filter(|&&b| depth_of[b] == level)
                .filter_map(|&b| tree.parent[b].map(|par| (par, b)))
                .collect();
            if edges.is_empty() {
                continue;
            }
            downward_level(cluster, h, &mut states, &edges);
        }
        // Join, per level (deepest first): each parent absorbs all its
        // children in one round on a per-parent HyperCube block.
        for level in (1..=max_depth).rev() {
            let mut by_parent: FastMap<usize, Vec<usize>> = FastMap::default();
            for &b in &order {
                if depth_of[b] == level {
                    if let Some(par) = tree.parent[b] {
                        by_parent.entry(par).or_default().push(b);
                    }
                }
            }
            if by_parent.is_empty() {
                continue;
            }
            join_level(cluster, h, &mut states, &by_parent);
        }
    } else {
        // Vanilla: one round per edge in every phase (slides 80–89).
        for &b in order.iter().rev() {
            if let Some(par) = tree.parent[b] {
                let parent_state = states[par].clone();
                states[par] = semijoin_round(cluster, h, parent_state, &states[b]);
            }
        }
        for &b in &order {
            if let Some(par) = tree.parent[b] {
                let child_state = states[b].clone();
                states[b] = semijoin_round(cluster, h, child_state, &states[par]);
            }
        }
        for &b in order.iter().rev() {
            if let Some(par) = tree.parent[b] {
                let left = states[par].clone();
                let right = states[b].clone();
                states[par] = join_round(cluster, h, left, right);
            }
        }
    }

    // Combine roots (forest ⇒ Cartesian product rounds).
    let roots: Vec<usize> = (0..tree.bags.len())
        .filter(|&b| tree.parent[b].is_none())
        .collect();
    let mut acc = states[roots[0]].clone();
    for &r in &roots[1..] {
        let right = states[r].clone();
        acc = join_round(cluster, h, acc, right);
    }
    acc
}

/// One round of parallel semijoins `left_i ⋉ right_i`, the pairs salted
/// apart: pair `i` sends its left rows tagged `i` and its right keys
/// tagged `n + i`. Returns, per pair and per server, the surviving left
/// rows with their instance ids. The ids ride beside the rows as
/// uncharged metadata, one list per destination and pair: inboxes are
/// delivered in send order, so each list stays aligned with its pair's
/// rows.
fn semijoin_level(
    cluster: &mut Cluster,
    h: &HashFamily,
    pairs: &[(&Dist, &Dist)],
) -> Vec<Vec<(Relation, Vec<u64>)>> {
    let p = cluster.p();
    let n = pairs.len();
    let steps: Vec<JoinStep> = pairs
        .iter()
        .map(|(left, right)| {
            let step = JoinStep::between(&left.schema, &right.schema);
            assert!(!step.left_key.is_empty(), "join-tree edges share variables");
            step
        })
        .collect();
    let mut insts: Vec<Vec<Vec<u64>>> = vec![vec![Vec::new(); n]; p];
    let mut ex = cluster.exchange::<RowBatch>();
    for (pair, ((left, right), step)) in pairs.iter().zip(&steps).enumerate() {
        let route = Route {
            h,
            salt: splitmix64(pair as u64),
        };
        route.send_rows(
            &mut ex,
            pair as u32,
            (left, &step.left_key),
            |dest, inst| insts[dest][pair].push(inst),
        );
        route.send_keys(&mut ex, (n + pair) as u32, (right, &step.right_key));
    }
    let inboxes = ex.finish();

    let mut arities: Vec<usize> = pairs.iter().map(|(left, _)| left.arity()).collect();
    arities.extend(steps.iter().map(|s| s.right_key.len()));
    let filtered = cluster.map(
        inboxes.into_iter().zip(insts).collect(),
        |_, (inbox, insts)| {
            let mut slots: Vec<Relation> = arities.iter().map(|&a| Relation::new(a)).collect();
            append_by_tag(inbox, &mut slots);
            let (rows, keys) = slots.split_at(n);
            rows.iter()
                .zip(keys)
                .zip(&steps)
                .zip(insts)
                .map(|(((rows, keys), step), ids)| {
                    let index = KeyIndex::keys(keys);
                    let mut kept = Relation::new(rows.arity());
                    let mut kept_ids = Vec::new();
                    for (row, id) in rows.iter().zip(ids) {
                        if index.contains(row, &step.left_key) {
                            kept.push(row);
                            kept_ids.push(id);
                        }
                    }
                    (kept, kept_ids)
                })
                .collect()
        },
    );
    transpose(filtered, n)
}

/// Optimized upward level: all parents filtered by all their
/// level-children. One filter round; plus one intersection round if any
/// parent has ≥ 2 children here (slides 90–91).
fn upward_level(
    cluster: &mut Cluster,
    h: &HashFamily,
    states: &mut [Dist],
    edges: &[(usize, usize)],
) {
    let p = cluster.p();
    // The level's parents in first-seen order, and each pair's slot.
    let mut parents: Vec<usize> = Vec::new();
    let slot_of_pair: Vec<usize> = edges
        .iter()
        .map(|&(par, _)| {
            parents.iter().position(|&q| q == par).unwrap_or_else(|| {
                parents.push(par);
                parents.len() - 1
            })
        })
        .collect();

    let pairs: Vec<(&Dist, &Dist)> = edges
        .iter()
        .map(|&(par, b)| (&states[par], &states[b]))
        .collect();
    let survivors = semijoin_level(cluster, h, &pairs);

    if parents.len() == edges.len() {
        // Each parent had exactly one child: survivors are the new state.
        for (&(par, _), per_server) in edges.iter().zip(survivors) {
            states[par].parts = per_server.into_iter().map(|(rows, _)| rows).collect();
        }
        return;
    }

    // Intersection round: survivors routed by instance id; an instance
    // survives iff all of its parent's filters passed it (slide 91).
    let mut insts: Vec<Vec<u64>> = vec![Vec::new(); p];
    let mut ex = cluster.exchange::<RowBatch>();
    for (pair, per_server) in survivors.iter().enumerate() {
        for (rows, ids) in per_server {
            for (row, &inst) in rows.iter().zip(ids) {
                let dest = (splitmix64(inst) % p as u64) as usize;
                ex.send_row(dest, pair as u32, row);
                insts[dest].push(inst);
            }
        }
    }
    let inboxes = ex.finish();

    let parent_arities: Vec<usize> = parents.iter().map(|&par| states[par].arity()).collect();
    let filters: Vec<u32> = (0..parents.len())
        .map(|slot| slot_of_pair.iter().filter(|&&s| s == slot).count() as u32)
        .collect();
    let merged = cluster.map(
        inboxes.into_iter().zip(insts).collect(),
        |_, (inbox, insts)| {
            // Count appearances of each (parent, instance); keep one row.
            // The map's iteration order, a function of the key sequence
            // alone, is the output row order.
            let mut counts: FastMap<(usize, u64), (u32, usize, &[Value])> = FastMap::default();
            let rows = inbox.iter().flat_map(|batch| {
                let pair = batch.tag() as usize;
                batch
                    .values()
                    .chunks_exact(batch.arity())
                    .map(move |row| (pair, row))
            });
            for ((pair, row), inst) in rows.zip(insts) {
                let slot = slot_of_pair[pair];
                counts
                    .entry((parents[slot], inst))
                    .or_insert((0, slot, row))
                    .0 += 1;
            }
            let mut out: Vec<Relation> = parent_arities.iter().map(|&a| Relation::new(a)).collect();
            for (cnt, slot, row) in counts.into_values() {
                if cnt == filters[slot] {
                    out[slot].push(row);
                }
            }
            out
        },
    );
    for (&par, parts) in parents.iter().zip(transpose(merged, parents.len())) {
        states[par].parts = parts;
    }
}

/// Optimized downward level: every level bag filtered by its (unique)
/// parent, all in one round.
fn downward_level(
    cluster: &mut Cluster,
    h: &HashFamily,
    states: &mut [Dist],
    edges: &[(usize, usize)],
) {
    let pairs: Vec<(&Dist, &Dist)> = edges
        .iter()
        .map(|&(par, b)| (&states[b], &states[par]))
        .collect();
    let survivors = semijoin_level(cluster, h, &pairs);
    for (&(_, b), per_server) in edges.iter().zip(survivors) {
        states[b].parts = per_server.into_iter().map(|(rows, _)| rows).collect();
    }
}

/// One parent's share of an optimized join level: its children, the
/// HyperCube block its merge runs on, and the local fold.
struct NodePlan {
    parent: usize,
    children: Vec<usize>,
    grid: Grid,
    offset: usize,
    /// Per child: the parent's and the child's key columns.
    keys: Vec<JoinStep>,
    /// Per child: the step folding it into the accumulated rows.
    folds: Vec<JoinStep>,
    /// Tag-slot arities: the parent's, then each child's.
    arities: Vec<usize>,
    /// Schema of the merged rows.
    schema: Vec<Var>,
}

/// Optimized join level: each parent absorbs all its children in one
/// round on its own HyperCube block (slide 93's "Skew-HC join phase").
fn join_level(
    cluster: &mut Cluster,
    h: &HashFamily,
    states: &mut [Dist],
    by_parent: &FastMap<usize, Vec<usize>>,
) {
    let p = cluster.p();
    let mut parents: Vec<usize> = by_parent.keys().copied().collect();
    parents.sort_unstable();
    let block = (p / parents.len()).max(1);

    let mut plans = Vec::new();
    for (i, &par) in parents.iter().enumerate() {
        let children = by_parent[&par].clone();
        let c = children.len();
        // The node's one-round merge is itself a small multiway join:
        // parent over all c dimensions, child i over dimension i. Let the
        // share LP split the block budget (slide 93's "Skew-HC" phase).
        let shares = if block >= 2 {
            let mut edges: Vec<Vec<usize>> = vec![(0..c).collect()];
            edges.extend((0..c).map(|d| vec![d]));
            let mini = parqp_lp::Hypergraph::new(c, edges);
            let mut sizes = vec![states[par].total().max(1) as u64];
            sizes.extend(children.iter().map(|&b| states[b].total().max(1) as u64));
            parqp_lp::plan_shares(&mini, &sizes, block).shares
        } else {
            vec![1; c]
        };
        let keys: Vec<JoinStep> = children
            .iter()
            .map(|&b| {
                let step = JoinStep::between(&states[par].schema, &states[b].schema);
                assert!(!step.left_key.is_empty(), "join-tree edges share variables");
                step
            })
            .collect();
        let mut schema = states[par].schema.clone();
        let mut folds = Vec::with_capacity(c);
        let mut arities = vec![states[par].arity()];
        for &b in &children {
            let child = &states[b].schema;
            let fold = JoinStep::between(&schema, child);
            schema = fold.out_vars(&schema, child);
            folds.push(fold);
            arities.push(child.len());
        }
        plans.push(NodePlan {
            parent: par,
            children,
            grid: Grid::new(shares),
            offset: i * block,
            keys,
            folds,
            arities,
            schema,
        });
    }

    // Parent rows (tag 0) go to their fully determined cell; child `i`'s
    // rows (tag 1 + i) fix dimension `i` and broadcast along the rest.
    let mut ex = cluster.exchange::<RowBatch>();
    for plan in &plans {
        let dims = plan.grid.dims();
        for row in states[plan.parent].rows() {
            let coords: Vec<usize> = plan
                .keys
                .iter()
                .zip(dims)
                .map(|(key, &d)| (combined_hash(h, row, &key.left_key) % d as u64) as usize)
                .collect();
            ex.send_row(plan.offset + plan.grid.rank(&coords), 0, row);
        }
        for (ci, (&b, key)) in plan.children.iter().zip(&plan.keys).enumerate() {
            for row in states[b].rows() {
                let mut partial = vec![None; plan.children.len()];
                partial[ci] =
                    Some((combined_hash(h, row, &key.right_key) % dims[ci] as u64) as usize);
                for dest in plan.grid.matching(&partial) {
                    ex.send_row(plan.offset + dest, 1 + ci as u32, row);
                }
            }
        }
    }
    let inboxes = ex.finish();

    // Local: fold the children into the parent fragment on every server
    // of a block; servers outside all blocks hold nothing.
    let merged = cluster.map(inboxes, |sid, inbox| {
        let (k, plan) = plans
            .iter()
            .enumerate()
            .find(|(_, plan)| (plan.offset..plan.offset + plan.grid.len()).contains(&sid))?;
        let mut slots: Vec<Relation> = plan.arities.iter().map(|&a| Relation::new(a)).collect();
        append_by_tag(inbox, &mut slots);
        let mut slots = slots.into_iter();
        let parent = slots.next()?;
        let acc = slots
            .zip(&plan.folds)
            .fold(parent, |acc, (child, fold)| fold.apply(&acc, &child));
        Some((k, acc))
    });
    let mut new_parts: Vec<Vec<Relation>> = plans
        .iter()
        .map(|plan| vec![Relation::new(plan.schema.len()); p])
        .collect();
    for (sid, part) in merged.into_iter().enumerate() {
        if let Some((k, rel)) = part {
            new_parts[k][sid] = rel;
        }
    }
    for (plan, parts) in plans.into_iter().zip(new_parts) {
        states[plan.parent] = Dist {
            schema: plan.schema,
            parts,
        };
    }
}

/// Convert the final distributed state into per-server output relations
/// in variable order.
fn finish(query: &Query, dist: Dist, report: LoadReport) -> JoinRun {
    assert_eq!(
        dist.schema.len(),
        query.num_vars(),
        "result must bind every variable"
    );
    let outputs = dist
        .parts
        .into_iter()
        .map(|rel| to_var_order(rel, &dist.schema))
        .collect();
    JoinRun { outputs, report }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parqp_data::generate;
    use parqp_query::evaluate;

    fn check(q: &Query, rels: &[Relation], run: &JoinRun) {
        let expect = evaluate(q, rels);
        assert_eq!(run.gathered().canonical(), expect.canonical());
    }

    #[test]
    fn vanilla_star_matches_oracle_with_9_rounds() {
        // Slide 89: star with 4 atoms (3 edges) runs in r = 9.
        let q = Query::star(4);
        let tree = Ghd::star_flat(&q);
        let rels: Vec<Relation> = (0..4)
            .map(|i| generate::uniform(2, 200, 40, i as u64))
            .collect();
        let run = gym(&q, &rels, &tree, 8, 3, false);
        check(&q, &rels, &run);
        assert_eq!(run.report.num_rounds(), 9);
    }

    #[test]
    fn optimized_star_matches_oracle_with_4_rounds() {
        // Slide 94: the flat star runs in r = 4 (filter, intersect,
        // downward, HC join).
        let q = Query::star(4);
        let tree = Ghd::star_flat(&q);
        let rels: Vec<Relation> = (0..4)
            .map(|i| generate::uniform(2, 200, 40, i as u64))
            .collect();
        let run = gym(&q, &rels, &tree, 8, 3, true);
        check(&q, &rels, &run);
        assert_eq!(run.report.num_rounds(), 4);
    }

    #[test]
    fn chain_vanilla_vs_optimized_rounds() {
        let n = 6;
        let q = Query::chain(n);
        let tree = Ghd::join_tree(&q).expect("chains are acyclic");
        let rels: Vec<Relation> = (0..n)
            .map(|i| generate::uniform(2, 120, 25, 10 + i as u64))
            .collect();
        let v = gym(&q, &rels, &tree, 8, 5, false);
        let o = gym(&q, &rels, &tree, 8, 5, true);
        check(&q, &rels, &v);
        assert_eq!(v.gathered().canonical(), o.gathered().canonical());
        assert_eq!(v.report.num_rounds(), 3 * (n - 1));
        // A path tree has one child per level: up d + down d + join d.
        assert_eq!(o.report.num_rounds(), 3 * (n - 1));
    }

    #[test]
    fn slide64_query_both_modes() {
        let q = Query::slide64_tree();
        let tree = Ghd::join_tree(&q).expect("acyclic");
        let rels: Vec<Relation> = (0..5)
            .map(|i| generate::uniform(2, 150, 30, 20 + i as u64))
            .collect();
        let v = gym(&q, &rels, &tree, 8, 7, false);
        let o = gym(&q, &rels, &tree, 8, 7, true);
        check(&q, &rels, &v);
        check(&q, &rels, &o);
        assert!(o.report.num_rounds() <= v.report.num_rounds());
    }

    #[test]
    fn dangling_tuples_filtered_before_join() {
        // Yannakakis' point: intermediates never exceed OUT. One chain-3
        // relation has keys that never join; after semijoins the join
        // phase must not see them.
        let n = 400;
        let q = Query::chain(3);
        let r1 = generate::key_unique_pairs(n, 1, 1 << 30, 1);
        let r2 = generate::key_unique_pairs(n, 0, 1 << 30, 2); // A1 keys ✓, A2 random
        let r3 = generate::uniform(2, n, 1 << 30, 3); // A2 almost never matches
        let rels = vec![r1, r2, r3];
        let tree = Ghd::join_tree(&q).expect("acyclic");
        let run = gym(&q, &rels, &tree, 8, 9, false);
        check(&q, &rels, &run);
        // The join-phase rounds (last 2) must carry almost nothing.
        let maxima = run.report.round_max_tuples();
        let join_phase_max = maxima[maxima.len() - 2..]
            .iter()
            .max()
            .copied()
            .unwrap_or(0);
        assert!(join_phase_max < 20, "join phase load {join_phase_max}");
    }

    #[test]
    fn gym_ghd_chain_blocks_matches_oracle() {
        let n = 6;
        let q = Query::chain(n);
        let rels: Vec<Relation> = (0..n)
            .map(|i| generate::uniform(2, 100, 20, 30 + i as u64))
            .collect();
        for w in [1, 2, 3] {
            let ghd = Ghd::chain_blocks(n, w);
            let run = gym_ghd(&q, &rels, &ghd, 8, 11);
            let expect = evaluate(&q, &rels);
            assert_eq!(
                run.gathered().canonical(),
                expect.canonical(),
                "width {w} mismatch"
            );
        }
    }

    #[test]
    fn gym_ghd_balanced_fewer_rounds_than_path() {
        // Balanced bags have disconnected covers (Cartesian products of
        // IN^w tuples), so keep the instance small.
        let n = 16;
        let q = Query::chain(n);
        let rels: Vec<Relation> = (0..n)
            .map(|i| generate::key_unique_pairs(40, 1, 40, 40 + i as u64))
            .collect();
        let path = gym_ghd(&q, &rels, &Ghd::chain_blocks(n, 1), 8, 13);
        let balanced = gym_ghd(&q, &rels, &Ghd::chain_balanced(n), 8, 13);
        assert_eq!(path.gathered().canonical(), balanced.gathered().canonical());
        assert!(
            balanced.report.num_rounds() < path.report.num_rounds(),
            "balanced {} vs path {}",
            balanced.report.num_rounds(),
            path.report.num_rounds()
        );
    }

    #[test]
    fn forest_query_product_of_components() {
        let q = Query::product();
        let tree = Ghd::join_tree(&q).expect("acyclic");
        let r = generate::uniform(1, 50, 500, 51);
        let s = generate::uniform(1, 60, 500, 52);
        let rels = vec![r, s];
        let run = gym(&q, &rels, &tree, 8, 15, false);
        assert_eq!(run.output_size(), 50 * 60);
    }

    #[test]
    fn empty_relation_empty_output() {
        let q = Query::star(3);
        let tree = Ghd::star_flat(&q);
        let rels = vec![
            generate::uniform(2, 50, 10, 61),
            Relation::new(2),
            generate::uniform(2, 50, 10, 62),
        ];
        for optimized in [false, true] {
            let run = gym(&q, &rels, &tree, 4, 17, optimized);
            assert_eq!(run.output_size(), 0);
        }
    }

    /// Per round: (Σ tuples, Σ words, max tuples, max words).
    fn ledger(report: &LoadReport) -> Vec<(u64, u64, u64, u64)> {
        report
            .rounds
            .iter()
            .map(|r| {
                (
                    r.total_tuples(),
                    r.total_words(),
                    r.max_tuples(),
                    r.max_words(),
                )
            })
            .collect()
    }

    #[test]
    fn star_ledger_is_pinned_with_and_without_faults() {
        // One parent with two children, so the upward phase runs its
        // intersection round (instance ids ride as uncharged metadata).
        use parqp_mpc::faults::{capture, FaultKind, FaultPlan, RecoveryStrategy};
        let q = Query::star(3);
        let tree = Ghd::star_flat(&q);
        let rels: Vec<Relation> = (0..3)
            .map(|i| generate::uniform(2, 300, 40, 80 + i as u64))
            .collect();
        let run = gym(&q, &rels, &tree, 8, 5, true);
        check(&q, &rels, &run);
        assert_eq!(run.output_size(), 17315);
        // Filter (rows + 1-word keys), intersection, downward, HC join.
        let clean = [
            (989, 1589, 154, 244),
            (600, 1200, 96, 192),
            (998, 1598, 155, 258),
            (2100, 4200, 334, 668),
        ];
        assert_eq!(ledger(&run.report), clean);

        // Drop 3 key rows in the filter round, duplicate 2 survivors in
        // the intersection round, drop 4 rows in the join round: each is
        // charged at its exact width and recovered.
        let plan = FaultPlan::new()
            .with_fault(0, 1, FaultKind::Drop { msgs: 3 })
            .with_fault(1, 2, FaultKind::Duplicate { msgs: 2 })
            .with_fault(3, 0, FaultKind::Drop { msgs: 4 });
        let (log, faulty) = capture(plan, RecoveryStrategy::default(), || {
            gym(&q, &rels, &tree, 8, 5, true)
        });
        assert_eq!(
            ledger(&faulty.report),
            [
                clean[0],
                (3, 3, 3, 3),
                (602, 1204, 98, 196),
                clean[2],
                clean[3],
                (4, 8, 4, 8),
            ]
        );
        assert_eq!(
            (
                log.fired(),
                log.recovery_rounds,
                log.recovery_tuples,
                log.recovery_words
            ),
            (3, 2, 9, 15)
        );
        assert_eq!(faulty.outputs, run.outputs, "recovery never alters data");
    }
}
