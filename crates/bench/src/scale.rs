//! Quick vs. paper-scale parameter sets.
//!
//! Every binary defaults to a reduced configuration that regenerates the
//! paper's *shapes* in seconds on a laptop; `--full` switches to the
//! exact parameters of the paper (10 graphs per size, 4000/8000/16000
//! nodes, 1000 operations, ten probability points).

/// Parameters for the static-overlay experiments (Section 6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StaticScale {
    /// Overlay sizes to sweep.
    pub sizes: &'static [usize],
    /// Independent graphs per size.
    pub graphs: usize,
    /// Insert/lookup pairs per graph.
    pub objects: usize,
    /// Degree of the random (regular) overlays; the paper uses 100.
    pub random_degree: usize,
}

/// The paper's Section 6.1 numbers.
pub(crate) const STATIC_FULL: StaticScale = StaticScale {
    sizes: &[4000, 8000, 16000],
    graphs: 10,
    objects: 100,
    random_degree: 100,
};

/// A laptop-friendly reduction preserving the trends.
pub(crate) const STATIC_QUICK: StaticScale = StaticScale {
    sizes: &[1000, 2000, 4000],
    graphs: 3,
    objects: 60,
    random_degree: 100,
};

/// Parameters for the perturbation experiments (Sections 3 and 6.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PerturbScale {
    /// Overlay size (the paper uses 1000).
    pub nodes: usize,
    /// Insert/lookup pairs.
    pub operations: usize,
    /// Flapping probabilities to sweep.
    pub probabilities: &'static [f64],
}

/// The paper's Section 6.2 numbers.
pub(crate) const PERTURB_FULL: PerturbScale = PerturbScale {
    nodes: 1000,
    operations: 1000,
    probabilities: &[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
};

/// A reduction that keeps 1000 nodes (the overlay structure matters) but
/// fewer operations and probability points.
pub(crate) const PERTURB_QUICK: PerturbScale = PerturbScale {
    nodes: 1000,
    operations: 120,
    probabilities: &[0.2, 0.4, 0.6, 0.8, 1.0],
};

/// Picks a static scale.
pub(crate) fn static_scale(full: bool) -> StaticScale {
    if full {
        STATIC_FULL
    } else {
        STATIC_QUICK
    }
}

/// Picks a perturbation scale.
pub(crate) fn perturb_scale(full: bool) -> PerturbScale {
    if full {
        PERTURB_FULL
    } else {
        PERTURB_QUICK
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_matches_paper() {
        assert_eq!(STATIC_FULL.sizes, &[4000, 8000, 16000]);
        assert_eq!(STATIC_FULL.graphs, 10);
        assert_eq!(STATIC_FULL.objects, 100);
        assert_eq!(STATIC_FULL.random_degree, 100);
        assert_eq!(PERTURB_FULL.nodes, 1000);
        assert_eq!(PERTURB_FULL.operations, 1000);
        assert_eq!(PERTURB_FULL.probabilities.len(), 10);
    }

    #[test]
    fn quick_is_smaller() {
        assert!(STATIC_QUICK.sizes.iter().max() <= STATIC_FULL.sizes.iter().max());
        // Read through a binding so the comparisons are not
        // compile-time constants (clippy::assertions_on_constants).
        let (quick, full) = (STATIC_QUICK, STATIC_FULL);
        assert!(quick.graphs < full.graphs);
        let (quick, full) = (PERTURB_QUICK, PERTURB_FULL);
        assert!(quick.operations < full.operations);
    }

    #[test]
    fn selector_picks() {
        assert_eq!(static_scale(true), STATIC_FULL);
        assert_eq!(static_scale(false), STATIC_QUICK);
        assert_eq!(perturb_scale(true), PERTURB_FULL);
        assert_eq!(perturb_scale(false), PERTURB_QUICK);
    }
}
