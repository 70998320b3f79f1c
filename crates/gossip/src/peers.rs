//! A fixed-capacity peer list stored in the value itself: the inline
//! storage of small [`crate::PartialView`]s and the payload of a
//! shuffle message.

use mpil_overlay::NodeIdx;

/// Up to `N` peers in push order: a `u8` length and the slots, no heap.
/// Callers bound what they push; a push past `N` panics.
#[derive(Debug, Clone)]
pub struct InlinePeers<const N: usize> {
    len: u8,
    slots: [NodeIdx; N],
}

impl<const N: usize> InlinePeers<N> {
    pub fn new() -> Self {
        const { assert!(N <= u8::MAX as usize, "the length is a u8") };
        InlinePeers {
            len: 0,
            slots: [NodeIdx::new(0); N],
        }
    }

    pub fn as_slice(&self) -> &[NodeIdx] {
        &self.slots[..self.len as usize]
    }

    pub fn push(&mut self, peer: NodeIdx) {
        self.slots[self.len as usize] = peer;
        self.len += 1;
    }

    /// Order-preserving removal of slot `slot`, like `Vec::remove`.
    pub(crate) fn remove(&mut self, slot: usize) {
        assert!(slot < self.len as usize, "slot {slot} of {}", self.len);
        self.slots.copy_within(slot + 1..self.len as usize, slot);
        self.len -= 1;
    }

    /// Order-preserving filter, like `Vec::retain`.
    pub fn retain(&mut self, mut keep: impl FnMut(NodeIdx) -> bool) {
        let mut kept = 0;
        for i in 0..self.len as usize {
            if keep(self.slots[i]) {
                self.slots[kept] = self.slots[i];
                kept += 1;
            }
        }
        self.len = kept as u8;
    }

    pub fn clear(&mut self) {
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn node(i: u32) -> NodeIdx {
        NodeIdx::new(i)
    }

    proptest! {
        /// Entries read back in push order, as many as were pushed, and
        /// `retain` and `remove` keep that order as `Vec` does.
        #[test]
        fn inline_peers_read_back_in_push_order(
            pushed in prop::collection::vec(0u32..64, 0..8),
            at in 0usize..8,
        ) {
            let mut peers = InlinePeers::<7>::new();
            let mut model: Vec<NodeIdx> = Vec::new();
            for &p in &pushed {
                peers.push(node(p));
                model.push(node(p));
                prop_assert_eq!(peers.as_slice(), model.as_slice());
            }
            prop_assert_eq!(peers.as_slice().len(), pushed.len());
            peers.retain(|p| p.index() % 2 == 0);
            model.retain(|p| p.index() % 2 == 0);
            prop_assert_eq!(peers.as_slice(), model.as_slice());
            if !model.is_empty() {
                peers.remove(at % model.len());
                model.remove(at % model.len());
                prop_assert_eq!(peers.as_slice(), model.as_slice());
            }
            peers.clear();
            prop_assert!(peers.as_slice().is_empty());
        }
    }
}
