//! Connected components in the Shiloach–Vishkin style (GAPBS `cc`).
//!
//! Every vertex starts in its own component; repeated *hooking* (adopt the
//! smaller label seen over an edge) and *pointer jumping* (path-halving
//! towards the label root) passes converge to one label per connected
//! component.  The parallel variant races on the label array with relaxed
//! atomics exactly like the GAPBS implementation — monotone decrease makes
//! the race benign.

use dgap::chunks::ranges;
use dgap::GraphView;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// Sequential Shiloach–Vishkin connected components.  Returns one component
/// label per vertex (the smallest vertex id in the component).
pub fn cc(view: &impl GraphView) -> Vec<u64> {
    let n = view.num_vertices();
    let mut comp: Vec<u64> = (0..n as u64).collect();
    if n == 0 {
        return comp;
    }
    loop {
        let mut changed = false;
        // Hooking: adopt the smaller component label across every edge.
        for v in 0..n as u64 {
            view.for_each_neighbor(v, &mut |u| {
                let (cv, cu) = (comp[v as usize], comp[u as usize]);
                if cv < cu {
                    comp[cu as usize] = comp[cu as usize].min(cv);
                    comp[u as usize] = cv;
                    changed = true;
                } else if cu < cv {
                    comp[cv as usize] = comp[cv as usize].min(cu);
                    comp[v as usize] = cu;
                    changed = true;
                }
            });
        }
        // Pointer jumping: flatten label chains.
        for v in 0..n {
            while comp[v] != comp[comp[v] as usize] {
                comp[v] = comp[comp[v] as usize];
            }
        }
        if !changed {
            break;
        }
    }
    comp
}

/// Rayon-parallel Shiloach–Vishkin connected components.  Produces the same
/// labelling as [`cc`]: every label converges to the smallest vertex id in
/// its component.  The hooking pass reads adjacency with one
/// [`GraphView::for_each_adjacency`] call per vertex chunk; the
/// path-halving pass chunks the label array.
pub fn cc_parallel(view: &impl GraphView) -> Vec<u64> {
    let n = view.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let comp: Vec<AtomicU64> = (0..n as u64).map(AtomicU64::new).collect();
    let chunk_ranges = ranges(n);
    loop {
        let changed: bool = chunk_ranges
            .par_iter()
            .map(|&(lo, hi)| {
                let mut local_change = false;
                view.for_each_adjacency((lo as u64..hi as u64).into(), &mut |v, nbrs| {
                    for &u in nbrs {
                        // Monotonically lower the larger label towards the
                        // smaller one; races only ever lower labels further.
                        loop {
                            let cv = comp[v as usize].load(Ordering::Relaxed);
                            let cu = comp[u as usize].load(Ordering::Relaxed);
                            if cv == cu {
                                break;
                            }
                            let (hi_idx, lo) = if cv > cu { (v, cu) } else { (u, cv) };
                            let hi = comp[hi_idx as usize].load(Ordering::Relaxed);
                            if hi <= lo {
                                break;
                            }
                            if comp[hi_idx as usize]
                                .compare_exchange(hi, lo, Ordering::Relaxed, Ordering::Relaxed)
                                .is_ok()
                            {
                                local_change = true;
                                break;
                            }
                        }
                    }
                });
                local_change
            })
            .reduce(|| false, |a, b| a || b);

        chunk_ranges.par_iter().for_each(|&(lo, hi)| {
            // Path halving.
            for v in lo..hi {
                loop {
                    let c = comp[v].load(Ordering::Relaxed);
                    let cc = comp[c as usize].load(Ordering::Relaxed);
                    if c == cc {
                        break;
                    }
                    comp[v].store(cc, Ordering::Relaxed);
                }
            }
        });
        if !changed {
            break;
        }
    }
    comp.into_iter().map(AtomicU64::into_inner).collect()
}

/// Number of distinct components in a labelling (testing/reporting helper).
pub fn component_count(labels: &[u64]) -> usize {
    let mut seen: Vec<u64> = labels.to_vec();
    seen.sort_unstable();
    seen.dedup();
    seen.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{path4, two_triangles};
    use dgap::ReferenceGraph;

    #[test]
    fn single_component_path() {
        let g = path4();
        let labels = cc(&g);
        assert!(labels.iter().all(|&l| l == labels[0]));
        assert_eq!(component_count(&labels), 1);
    }

    #[test]
    fn isolated_vertex_is_its_own_component() {
        let g = two_triangles();
        let labels = cc(&g);
        assert_eq!(component_count(&labels), 2);
        assert_eq!(labels[6], 6);
        assert!(labels[..6].iter().all(|&l| l == labels[0]));
    }

    #[test]
    fn multiple_components() {
        let mut g = ReferenceGraph::new(9);
        for &(a, b) in &[(0, 1), (1, 2), (3, 4), (5, 6), (6, 7)] {
            g.add_edge(a, b);
            g.add_edge(b, a);
        }
        let labels = cc(&g);
        assert_eq!(component_count(&labels), 4); // {0,1,2} {3,4} {5,6,7} {8}
        assert_eq!(labels[0], labels[2]);
        assert_ne!(labels[0], labels[3]);
        assert_ne!(labels[3], labels[5]);
        assert_eq!(labels[8], 8);
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = two_triangles();
        assert_eq!(cc(&g), cc_parallel(&g));
        let mut big = ReferenceGraph::new(200);
        let mut x = 123u64;
        for _ in 0..500 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = (x >> 33) % 200;
            let b = (x >> 11) % 200;
            big.add_edge(a, b);
            big.add_edge(b, a);
        }
        assert_eq!(cc(&big), cc_parallel(&big));
    }

    #[test]
    fn empty_graph() {
        let g = ReferenceGraph::new(0);
        assert!(cc(&g).is_empty());
        assert!(cc_parallel(&g).is_empty());
        assert!(cc_parallel(&dgap::FrozenView::capture(&g)).is_empty());
    }

    #[test]
    fn csr_kernel_matches_sequential_labels() {
        use dgap::FrozenView;
        let g = two_triangles();
        let frozen = FrozenView::capture(&g);
        assert_eq!(cc(&frozen), cc_parallel(&frozen));
        let mut big = ReferenceGraph::new(200);
        let mut x = 123u64;
        for _ in 0..500 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = (x >> 33) % 200;
            let b = (x >> 11) % 200;
            big.add_edge(a, b);
            big.add_edge(b, a);
        }
        let frozen = FrozenView::capture(&big);
        assert_eq!(cc(&frozen), cc_parallel(&frozen));
    }

    #[test]
    fn labels_are_component_minima() {
        let g = two_triangles();
        let labels = cc(&g);
        assert_eq!(labels[0], 0);
        assert_eq!(labels[5], 0);
    }
}
