//! Device floorplan model (Fig 2.3).
//!
//! The XCU50's die is two stacked SLRs with the HBM stacks along the bottom
//! edge of SLR0. This module models that geometry — named regions with
//! resource shares and adjacency — so placement decisions ("four PSAs per
//! SLR", "HBM ports only on SLR0") can be represented and rendered, and the
//! inter-SLR crossing count of a placement can be audited.

use crate::device::SlrId;
use std::collections::BTreeMap;

/// A placed block on the floorplan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacedBlock {
    /// Block name (e.g. `"psa-3"`).
    pub name: String,
    /// SLR the block occupies.
    pub slr: SlrId,
}

/// A directed connection between two placed blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Connection {
    /// Source block name.
    pub from: String,
    /// Destination block name.
    pub to: String,
}

/// A floorplan: placed blocks plus their connections.
#[derive(Debug, Clone, Default)]
pub struct Floorplan {
    blocks: Vec<PlacedBlock>,
    connections: Vec<Connection>,
}

impl Floorplan {
    /// Empty floorplan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Place a block on an SLR.
    ///
    /// # Panics
    /// Panics on a duplicate block name.
    pub fn place(&mut self, name: impl Into<String>, slr: SlrId) {
        let name = name.into();
        assert!(!self.blocks.iter().any(|b| b.name == name), "block '{}' already placed", name);
        self.blocks.push(PlacedBlock { name, slr });
    }

    /// Connect two placed blocks.
    ///
    /// # Panics
    /// Panics if either endpoint is unplaced.
    pub fn connect(&mut self, from: impl Into<String>, to: impl Into<String>) {
        let (from, to) = (from.into(), to.into());
        for end in [&from, &to] {
            assert!(self.blocks.iter().any(|b| &b.name == end), "endpoint '{}' not placed", end);
        }
        self.connections.push(Connection { from, to });
    }

    /// SLR of a placed block.
    pub fn slr_of(&self, name: &str) -> Option<SlrId> {
        self.blocks.iter().find(|b| b.name == name).map(|b| b.slr)
    }

    /// Connections that cross the SLR boundary — the traffic the paper's
    /// schedule is designed to minimise (§4.6).
    pub fn isc_crossings(&self) -> Vec<&Connection> {
        self.connections.iter().filter(|c| self.slr_of(&c.from) != self.slr_of(&c.to)).collect()
    }

    /// Blocks per SLR.
    pub fn occupancy(&self) -> BTreeMap<SlrId, usize> {
        let mut m = BTreeMap::new();
        for b in &self.blocks {
            *m.entry(b.slr).or_insert(0) += 1;
        }
        m
    }

    /// The paper's placement: four PSAs + adders per SLR, HBM ports on SLR0,
    /// function units duplicated, one ISC link for the MM6/Add-Norm merges.
    pub fn paper_placement() -> Floorplan {
        let mut fp = Floorplan::new();
        for i in 0..8 {
            let slr = if i < 4 { SlrId::Slr0 } else { SlrId::Slr1 };
            fp.place(format!("psa-{}", i), slr);
            fp.place(format!("adder-{}", i), slr);
        }
        fp.place("softmax-0", SlrId::Slr0);
        fp.place("softmax-1", SlrId::Slr1);
        fp.place("norm-0", SlrId::Slr0);
        fp.place("norm-1", SlrId::Slr1);
        fp.place("hbm-ports", SlrId::Slr0);
        // each PSA feeds its adder locally
        for i in 0..8 {
            fp.connect(format!("psa-{}", i), format!("adder-{}", i));
        }
        // HBM weight streams: direct on SLR0, one crossing to SLR1
        fp.connect("hbm-ports", "psa-0");
        fp.connect("hbm-ports", "psa-4");
        // cross-SLR merge of the MM6 halves
        fp.connect("adder-7", "adder-0");
        fp
    }

    /// Render an ASCII floorplan (Fig 2.3 style).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for slr in [SlrId::Slr1, SlrId::Slr0] {
            out.push_str(&format!("+---------------- SLR{} ----------------+\n", slr.index()));
            let names: Vec<&str> =
                self.blocks.iter().filter(|b| b.slr == slr).map(|b| b.name.as_str()).collect();
            for chunk in names.chunks(4) {
                out.push_str(&format!("| {:<38}|\n", chunk.join("  ")));
            }
            out.push_str("+---------------------------------------+\n");
        }
        out.push_str("|              HBM2 stacks              |\n");
        out.push_str("+---------------------------------------+\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_placement_balances_slrs() {
        let fp = Floorplan::paper_placement();
        let occ = fp.occupancy();
        // 4 PSAs + 4 adders + softmax + norm per SLR; SLR0 also hosts HBM ports
        assert_eq!(occ[&SlrId::Slr0], 11);
        assert_eq!(occ[&SlrId::Slr1], 10);
    }

    #[test]
    fn paper_placement_minimises_crossings() {
        // exactly two crossings: the HBM stream to SLR1 and the MM6 merge
        let fp = Floorplan::paper_placement();
        assert_eq!(fp.isc_crossings().len(), 2);
    }

    #[test]
    fn local_connections_do_not_cross() {
        let fp = Floorplan::paper_placement();
        for c in &fp.isc_crossings() {
            assert_ne!(fp.slr_of(&c.from), fp.slr_of(&c.to));
        }
    }

    #[test]
    fn render_contains_both_slrs_and_hbm() {
        let s = Floorplan::paper_placement().render();
        assert!(s.contains("SLR0"));
        assert!(s.contains("SLR1"));
        assert!(s.contains("HBM2"));
        assert!(s.contains("psa-0"));
    }

    #[test]
    #[should_panic(expected = "already placed")]
    fn duplicate_placement_panics() {
        let mut fp = Floorplan::new();
        fp.place("x", SlrId::Slr0);
        fp.place("x", SlrId::Slr1);
    }

    #[test]
    #[should_panic(expected = "not placed")]
    fn dangling_connection_panics() {
        let mut fp = Floorplan::new();
        fp.place("a", SlrId::Slr0);
        fp.connect("a", "ghost");
    }
}
