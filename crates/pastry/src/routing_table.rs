//! The Pastry routing table: rows indexed by shared-prefix length,
//! columns by the next digit.

use mpil_id::{Id, IdSpace};
use mpil_overlay::NodeIdx;

/// A Pastry routing table for one node.
///
/// Entry `(row r, col c)` holds some node whose ID shares exactly `r`
/// leading digits with the owner and whose digit at position `r` is `c`.
/// With `b = 4` (base-16) over 160-bit IDs the table is 40 rows × 16
/// columns, though only the first `O(log_16 N)` rows are populated in
/// practice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingTable {
    own: Id,
    space: IdSpace,
    rows: Vec<Vec<Option<(Id, NodeIdx)>>>,
}

impl RoutingTable {
    /// Creates an empty table for a node with ID `own`.
    pub fn new(own: Id, space: IdSpace) -> Self {
        let num_rows = space.num_digits() as usize;
        let num_cols = usize::from(space.digit_bits().radix());
        RoutingTable {
            own,
            space,
            rows: vec![vec![None; num_cols]; num_rows],
        }
    }

    /// The owner's ID.
    pub fn own_id(&self) -> Id {
        self.own
    }

    /// Number of rows (`M`).
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// The `(row, col)` slot a candidate with ID `id` belongs in, or
    /// `None` for the owner's own ID.
    pub fn slot_for(&self, id: Id) -> Option<(usize, usize)> {
        if id == self.own {
            return None;
        }
        let row = self.space.prefix_match(self.own, id) as usize;
        let col = usize::from(self.space.digit(id, row));
        Some((row, col))
    }

    /// The entry that routes `key` one digit further, if present: row =
    /// shared prefix of `key` and owner, column = `key`'s digit there.
    /// Returns `None` for the owner's own key.
    pub fn entry_for_key(&self, key: Id) -> Option<(Id, NodeIdx)> {
        let (row, col) = self.slot_for(key)?;
        self.rows[row][col]
    }

    /// Offers a candidate. An empty slot takes it; an occupied slot keeps
    /// its occupant (MSPastry would prefer the closer-by-proximity one;
    /// first-wins keeps the simulation deterministic and is noted in
    /// DESIGN.md). Returns `true` if the table changed.
    pub fn consider(&mut self, id: Id, node: NodeIdx) -> bool {
        let Some((row, col)) = self.slot_for(id) else {
            return false;
        };
        if self.rows[row][col].is_some() {
            return false;
        }
        self.rows[row][col] = Some((id, node));
        true
    }

    /// Removes every entry referring to `node`. Returns `true` if any
    /// was present.
    pub fn remove(&mut self, node: NodeIdx) -> bool {
        let mut removed = false;
        for row in &mut self.rows {
            for slot in row.iter_mut() {
                if slot.map(|(_, n)| n) == Some(node) {
                    *slot = None;
                    removed = true;
                }
            }
        }
        removed
    }

    /// Iterates all populated entries.
    pub fn entries(&self) -> impl Iterator<Item = (Id, NodeIdx)> + '_ {
        self.rows.iter().flatten().filter_map(|s| *s)
    }

    /// The populated entries of one row (for routing-table maintenance
    /// row exchanges).
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn row_entries(&self, row: usize) -> Vec<(Id, NodeIdx)> {
        self.rows[row].iter().filter_map(|s| *s).collect()
    }

    /// Number of populated entries.
    pub fn len(&self) -> usize {
        self.entries().count()
    }

    /// Returns `true` if no entries are populated.
    pub fn is_empty(&self) -> bool {
        self.entries().next().is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> IdSpace {
        IdSpace::base16()
    }

    fn id_hex(digits: &[u8]) -> Id {
        let mut id = Id::ZERO;
        for (i, &d) in digits.iter().enumerate() {
            id = id.with_digit(i, 4, d);
        }
        id
    }

    fn n(i: u32) -> NodeIdx {
        NodeIdx::new(i)
    }

    #[test]
    fn slots_follow_prefix_and_digit() {
        let own = id_hex(&[0xa, 0xb, 0xc]);
        let rt = RoutingTable::new(own, space());
        // Shares no prefix, first digit 0x1 -> row 0, col 1.
        assert_eq!(rt.slot_for(id_hex(&[0x1])), Some((0, 1)));
        // Shares "a", next digit 0x7 -> row 1, col 7.
        assert_eq!(rt.slot_for(id_hex(&[0xa, 0x7])), Some((1, 7)));
        // Shares "ab", next digit 0x0 -> row 2, col 0.
        assert_eq!(rt.slot_for(id_hex(&[0xa, 0xb, 0x0])), Some((2, 0)));
        assert_eq!(rt.slot_for(own), None);
    }

    #[test]
    fn consider_fills_empty_slots_only() {
        let own = id_hex(&[0xa]);
        let mut rt = RoutingTable::new(own, space());
        let cand1 = id_hex(&[0x3, 0x1]);
        let cand2 = id_hex(&[0x3, 0x2]); // same slot (row 0, col 3)
        assert!(rt.consider(cand1, n(1)));
        assert!(!rt.consider(cand2, n(2)), "slot already occupied");
        assert_eq!(rt.entry_for_key(id_hex(&[0x3, 0x9])), Some((cand1, n(1))));
        assert_eq!(rt.len(), 1);
    }

    #[test]
    fn entry_for_key_requires_exact_row() {
        let own = id_hex(&[0xa, 0xb]);
        let mut rt = RoutingTable::new(own, space());
        let cand = id_hex(&[0xa, 0x1]);
        rt.consider(cand, n(3));
        // Key sharing "a" with next digit 1 routes via cand.
        assert_eq!(
            rt.entry_for_key(id_hex(&[0xa, 0x1, 0xf])),
            Some((cand, n(3)))
        );
        // Key with a different digit misses.
        assert_eq!(rt.entry_for_key(id_hex(&[0xa, 0x2])), None);
    }

    #[test]
    fn remove_clears_all_occurrences() {
        let own = id_hex(&[0xa]);
        let mut rt = RoutingTable::new(own, space());
        rt.consider(id_hex(&[0x1]), n(1));
        rt.consider(id_hex(&[0x2]), n(1)); // same node in another slot
        assert_eq!(rt.len(), 2);
        assert!(rt.remove(n(1)));
        assert!(rt.is_empty());
        assert!(!rt.remove(n(1)));
    }

    #[test]
    fn row_entries_lists_one_row() {
        let own = id_hex(&[0xa]);
        let mut rt = RoutingTable::new(own, space());
        rt.consider(id_hex(&[0x1]), n(1));
        rt.consider(id_hex(&[0xa, 0x1]), n(2));
        assert_eq!(rt.row_entries(0).len(), 1);
        assert_eq!(rt.row_entries(1).len(), 1);
        assert!(rt.row_entries(2).is_empty());
    }

    #[test]
    fn table_dimensions_match_space() {
        let rt = RoutingTable::new(Id::ZERO, space());
        assert_eq!(rt.num_rows(), 40);
        let rt2 = RoutingTable::new(Id::MAX, IdSpace::base4());
        assert_eq!(rt2.num_rows(), 80);
    }
}
