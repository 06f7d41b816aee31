//! Planar point geometry for proximity (geometric mobility) models.
//!
//! A geometric dynamic network places nodes in the unit square and
//! connects every pair within a fixed radius. The expensive query is
//! *"who is near `v` right now?"* — answering it by scanning all `n`
//! positions makes every move event O(n). [`GridIndex`] buckets the
//! positions into a uniform grid whose cells are at least one radius
//! wide, so a radius query only inspects the 3 × 3 cell neighborhood of
//! the query point: O(occupancy) instead of O(n), the standard uniform
//! cell list of computational-geometry folklore.
//!
//! The index is deterministic: cell membership follows insertion and
//! move order, so simulations driven by a seeded RNG replay identically.
//!
//! The cell table and position buffer cycle through the thread-local
//! [`crate::arena`] pool: building one index per trial reuses the
//! previous trial's allocations (outer table *and* per-cell vectors)
//! instead of reallocating `Vec<Vec<Node>>` every realization.

use crate::arena;
use crate::csr::Node;

/// A uniform-grid spatial index over points in the unit square.
///
/// # Example
///
/// ```
/// use rumor_graph::geometry::GridIndex;
///
/// let grid = GridIndex::new(vec![(0.1, 0.1), (0.15, 0.1), (0.9, 0.9)], 0.2);
/// let mut near = Vec::new();
/// grid.within_radius(0, &mut near);
/// assert_eq!(near, vec![1]); // node 2 is far away
/// ```
#[derive(Debug, Clone)]
pub struct GridIndex {
    radius: f64,
    /// Cells per side; cell side length `1/cols >= radius`.
    cols: usize,
    pos: Vec<(f64, f64)>,
    cells: Vec<Vec<Node>>,
}

impl GridIndex {
    /// Builds an index over `positions` (all inside the unit square)
    /// with the given connection radius.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is not in `(0, ∞)` or any coordinate is
    /// outside `[0, 1]`.
    pub fn new(positions: Vec<(f64, f64)>, radius: f64) -> Self {
        assert!(radius > 0.0 && radius.is_finite(), "radius must be positive and finite");
        for &(x, y) in &positions {
            assert!(
                (0.0..=1.0).contains(&x) && (0.0..=1.0).contains(&y),
                "position ({x}, {y}) outside the unit square"
            );
        }
        // Cells must be at least `radius` wide for 3x3 correctness; the
        // sqrt(n) cap keeps memory O(n) when the radius is tiny.
        let n = positions.len();
        let by_radius = (1.0 / radius).floor().max(1.0) as usize;
        let by_count = ((n as f64).sqrt().ceil() as usize).max(1);
        let cols = by_radius.min(by_count).max(1);
        let mut cells = arena::take_cells();
        let want = cols * cols;
        if cells.len() > want {
            cells.truncate(want);
        } else {
            cells.resize_with(want, Vec::new);
        }
        let mut index = Self { radius, cols, pos: positions, cells };
        for v in 0..index.pos.len() {
            let c = index.cell_index(index.pos[v]);
            index.cells[c].push(v as Node);
        }
        index
    }

    /// Number of indexed points.
    pub fn node_count(&self) -> usize {
        self.pos.len()
    }

    /// The connection radius the index was built for.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Current position of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn position(&self, v: Node) -> (f64, f64) {
        self.pos[v as usize]
    }

    /// Moves `v` to `(x, y)`, rebucketing it.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range or the target is outside the unit
    /// square.
    pub fn move_to(&mut self, v: Node, x: f64, y: f64) {
        assert!(
            (0.0..=1.0).contains(&x) && (0.0..=1.0).contains(&y),
            "target ({x}, {y}) outside the unit square"
        );
        let old = self.cell_index(self.pos[v as usize]);
        let new = self.cell_index((x, y));
        self.pos[v as usize] = (x, y);
        if old != new {
            let slot = self.cells[old].iter().position(|&u| u == v).expect("node is in its cell");
            self.cells[old].swap_remove(slot);
            self.cells[new].push(v);
        }
    }

    /// Collects into `out` every node `u != v` with
    /// `dist(u, v) <= radius`, ascending. Only the 3 × 3 cell
    /// neighborhood of `v` is inspected.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn within_radius(&self, v: Node, out: &mut Vec<Node>) {
        out.clear();
        let (x, y) = self.pos[v as usize];
        let r2 = self.radius * self.radius;
        let (cx, cy) = self.cell_coords((x, y));
        let rows = cy.saturating_sub(1)..=(cy + 1).min(self.cols - 1);
        let cols = cx.saturating_sub(1)..=(cx + 1).min(self.cols - 1);
        let cells = || rows.clone().flat_map(|gy| cols.clone().map(move |gx| gy * self.cols + gx));
        // Branchless collection: every candidate is written, and the
        // write index advances only past the ones in range. Whether a
        // candidate is in range is a coin flip to the branch predictor.
        out.resize(cells().map(|c| self.cells[c].len()).sum(), 0);
        let mut len = 0;
        for c in cells() {
            for &u in &self.cells[c] {
                let (ux, uy) = self.pos[u as usize];
                let (dx, dy) = (ux - x, uy - y);
                out[len] = u;
                len += usize::from((dx * dx + dy * dy <= r2) & (u != v));
            }
        }
        out.truncate(len);
        out.sort_unstable();
    }

    /// Every proximity edge `(u, v)` with `u < v`, in ascending order —
    /// the edge set of the geometric graph at the current positions.
    pub fn proximity_edges(&self) -> Vec<(Node, Node)> {
        let mut edges = Vec::new();
        let mut near = Vec::new();
        for v in 0..self.pos.len() as Node {
            self.within_radius(v, &mut near);
            for &u in &near {
                if v < u {
                    edges.push((v, u));
                }
            }
        }
        edges
    }

    fn cell_coords(&self, (x, y): (f64, f64)) -> (usize, usize) {
        let clamp = |t: f64| ((t * self.cols as f64) as usize).min(self.cols - 1);
        (clamp(x), clamp(y))
    }

    fn cell_index(&self, p: (f64, f64)) -> usize {
        let (cx, cy) = self.cell_coords(p);
        cy * self.cols + cx
    }
}

impl Drop for GridIndex {
    fn drop(&mut self) {
        arena::give_cells(std::mem::take(&mut self.cells));
        arena::give_positions(std::mem::take(&mut self.pos));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force reference for the radius query.
    fn brute(pos: &[(f64, f64)], v: usize, r: f64) -> Vec<Node> {
        let (x, y) = pos[v];
        let mut out: Vec<Node> = (0..pos.len())
            .filter(|&u| {
                let (ux, uy) = pos[u];
                u != v && (ux - x).powi(2) + (uy - y).powi(2) <= r * r
            })
            .map(|u| u as Node)
            .collect();
        out.sort_unstable();
        out
    }

    fn scatter(n: usize, seed: u64) -> Vec<(f64, f64)> {
        let mut rng = rumor_sim::rng::Xoshiro256PlusPlus::seed_from(seed);
        (0..n).map(|_| (rng.f64_unit(), rng.f64_unit())).collect()
    }

    /// Every point of a square lattice of spacing exactly `r`, twice:
    /// lattice neighbors sit at distance exactly `r`, and each point
    /// has a coincident twin.
    fn doubled_lattice(r: f64) -> Vec<(f64, f64)> {
        let k = (1.0 / r) as usize;
        let side = move |i| i as f64 * r;
        (0..=k).flat_map(|i| (0..=k).flat_map(move |j| [(side(i), side(j)); 2])).collect()
    }

    #[test]
    fn radius_query_matches_brute_force() {
        let mut inputs: Vec<_> = [(40, 0.25), (120, 0.1), (7, 0.9), (64, 0.03)]
            .into_iter()
            .map(|(n, r)| (scatter(n, n as u64 ^ 0x9E37), r))
            .collect();
        inputs.push((doubled_lattice(0.125), 0.125));
        for (pos, r) in inputs {
            let n = pos.len();
            let grid = GridIndex::new(pos.clone(), r);
            let mut near = Vec::new();
            for v in 0..n {
                grid.within_radius(v as Node, &mut near);
                assert_eq!(near, brute(&pos, v, r), "n {n} r {r} node {v}");
            }
        }
    }

    #[test]
    fn moves_rebucket_and_queries_follow() {
        let mut pos = scatter(50, 3);
        let mut grid = GridIndex::new(pos.clone(), 0.2);
        let mut rng = rumor_sim::rng::Xoshiro256PlusPlus::seed_from(9);
        let mut near = Vec::new();
        for step in 0..200 {
            let v = rng.range_usize(50);
            let (x, y) = (rng.f64_unit(), rng.f64_unit());
            grid.move_to(v as Node, x, y);
            pos[v] = (x, y);
            assert_eq!(grid.position(v as Node), (x, y));
            let probe = rng.range_usize(50);
            grid.within_radius(probe as Node, &mut near);
            assert_eq!(near, brute(&pos, probe, 0.2), "step {step}");
        }
    }

    #[test]
    fn proximity_edges_are_symmetric_and_sorted() {
        let pos = scatter(60, 5);
        let grid = GridIndex::new(pos.clone(), 0.18);
        let edges = grid.proximity_edges();
        assert!(edges.windows(2).all(|w| w[0] < w[1]), "unsorted edge list");
        for &(u, v) in &edges {
            assert!(u < v);
            assert!(brute(&pos, u as usize, 0.18).contains(&v));
        }
        // Every brute-force pair appears.
        let count: usize = (0..60).map(|v| brute(&pos, v, 0.18).len()).sum();
        assert_eq!(edges.len() * 2, count);
    }

    #[test]
    fn tiny_radius_caps_cell_count() {
        let grid = GridIndex::new(scatter(16, 7), 1e-6);
        // sqrt(16) = 4 cells per side despite the microscopic radius.
        assert_eq!(grid.cols, 4);
        let mut near = Vec::new();
        grid.within_radius(0, &mut near);
        assert!(near.is_empty());
    }

    #[test]
    fn rebuilt_index_recycles_its_cell_table() {
        let pos = scatter(32, 11);
        let first = GridIndex::new(pos.clone(), 0.2);
        let table_ptr = first.cells.as_ptr();
        let edges = first.proximity_edges();
        drop(first);
        // Next trial: same shape, same allocation, same answers.
        let second = GridIndex::new(pos, 0.2);
        assert_eq!(second.cells.as_ptr(), table_ptr, "cell table came from the pool");
        assert_eq!(second.proximity_edges(), edges);
    }

    #[test]
    #[should_panic(expected = "unit square")]
    fn rejects_positions_outside_the_square() {
        GridIndex::new(vec![(1.5, 0.0)], 0.1);
    }

    #[test]
    #[should_panic(expected = "radius")]
    fn rejects_nonpositive_radius() {
        GridIndex::new(vec![(0.5, 0.5)], 0.0);
    }
}
