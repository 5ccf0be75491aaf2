//! Page classification: the decision logic of the paper's Table 1.
//!
//! Pyxis tracks, per page, the full map of reader nodes and writer nodes.
//! From those maps each node *locally* derives the page's class and — given
//! the configured classification mode — whether the page must be
//! self-invalidated at a synchronization point and whether its dirty copy
//! must be self-downgraded. No message handlers are involved: the maps are
//! plain data deposited via remote atomics.

/// Which classification scheme Carina runs (the three columns of Figure 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClassificationMode {
    /// No classification: every page is treated as shared — SI and SD
    /// everything ("S" in the paper).
    AllShared,
    /// The naïve P/S scheme: private pages skip SI but are *not*
    /// self-downgraded, so every sync point must checkpoint all modified
    /// private pages to be able to service P→S transitions ("P/S").
    PsNaive,
    /// Full Carina classification: P/S plus writer classification
    /// (NW/SW/MW), with private pages self-downgraded ("P/S3"). This is
    /// what Argo ships.
    #[default]
    Ps3,
}

/// Private/Shared component of a page's class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageClass {
    /// At most one node accesses the page ("temporary privacy", §3.2).
    Private,
    Shared,
}

/// Writer-count component of a page's class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriterClass {
    /// No writers registered (read-only so far).
    None,
    /// Exactly one writer node.
    Single(u16),
    /// More than one writer.
    Multiple,
}

/// A decoded directory entry: who reads and who writes a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DirView {
    pub readers: u128,
    pub writers: u128,
}

impl DirView {
    /// All nodes that touched the page in any way.
    #[inline]
    pub fn accessors(&self) -> u128 {
        self.readers | self.writers
    }

    #[inline]
    pub fn page_class(&self) -> PageClass {
        if self.accessors().count_ones() <= 1 {
            PageClass::Private
        } else {
            PageClass::Shared
        }
    }

    #[inline]
    pub fn writer_class(&self) -> WriterClass {
        match self.writers.count_ones() {
            0 => WriterClass::None,
            1 => WriterClass::Single(self.writers.trailing_zeros() as u16),
            _ => WriterClass::Multiple,
        }
    }

    /// True if `node` is the only accessor (the "private owner").
    #[inline]
    pub fn is_private_to(&self, node: u16) -> bool {
        self.accessors() == node_bit(node)
    }

    /// Table 1: must `node` self-invalidate its cached copy at a
    /// synchronization point, under `mode`?
    pub fn must_self_invalidate(&self, mode: ClassificationMode, node: u16) -> bool {
        match mode {
            ClassificationMode::AllShared => true,
            ClassificationMode::PsNaive | ClassificationMode::Ps3 => {
                if self.page_class() == PageClass::Private {
                    // Private pages never self-invalidate. A page this node
                    // caches always counts the node among accessors, so
                    // Private here means private *to us*.
                    return false;
                }
                match mode {
                    ClassificationMode::PsNaive => true,
                    ClassificationMode::Ps3 => match self.writer_class() {
                        // Shared, no writers: nothing to observe, keep it.
                        WriterClass::None => false,
                        // Shared, single writer: the writer itself keeps its
                        // copy (there are no other updates to miss); every
                        // other node invalidates.
                        WriterClass::Single(w) => w != node,
                        WriterClass::Multiple => true,
                    },
                    ClassificationMode::AllShared => unreachable!(),
                }
            }
        }
    }

    /// Table 1: must a dirty copy of this page be self-downgraded at a
    /// synchronization point? Only the naïve P/S scheme exempts private
    /// pages (and pays for it with checkpointing).
    pub fn must_self_downgrade(&self, mode: ClassificationMode) -> bool {
        match mode {
            ClassificationMode::AllShared | ClassificationMode::Ps3 => true,
            ClassificationMode::PsNaive => self.page_class() == PageClass::Shared,
        }
    }
}

/// Bit for `node` in a 128-node full map.
#[inline]
pub fn node_bit(node: u16) -> u128 {
    assert!(node < 128, "full maps support up to 128 nodes");
    1u128 << node
}

#[cfg(test)]
mod tests {
    use super::*;
    use ClassificationMode::*;

    fn view(readers: &[u16], writers: &[u16]) -> DirView {
        DirView {
            readers: readers.iter().fold(0, |a, &n| a | node_bit(n)),
            writers: writers.iter().fold(0, |a, &n| a | node_bit(n)),
        }
    }

    #[test]
    fn classes_follow_accessor_counts() {
        assert_eq!(view(&[], &[]).page_class(), PageClass::Private);
        assert_eq!(view(&[3], &[]).page_class(), PageClass::Private);
        assert_eq!(view(&[3], &[3]).page_class(), PageClass::Private);
        assert_eq!(view(&[0, 1], &[]).page_class(), PageClass::Shared);
        // A pure writer also counts as an accessor.
        assert_eq!(view(&[0], &[1]).page_class(), PageClass::Shared);
        assert_eq!(view(&[0, 1], &[]).writer_class(), WriterClass::None);
        assert_eq!(view(&[0, 1], &[1]).writer_class(), WriterClass::Single(1));
        assert_eq!(view(&[0, 1], &[0, 1]).writer_class(), WriterClass::Multiple);
    }

    // The four data rows of Table 1, for both SI and SD.
    #[test]
    fn table1_all_shared_mode() {
        let private = view(&[0], &[0]);
        assert!(private.must_self_invalidate(AllShared, 0));
        assert!(private.must_self_downgrade(AllShared));
    }

    #[test]
    fn table1_private_rows() {
        let private = view(&[0], &[0]);
        // P: no SI in both P/S and P/S3.
        assert!(!private.must_self_invalidate(PsNaive, 0));
        assert!(!private.must_self_invalidate(Ps3, 0));
        // P/S3 self-downgrades private pages ("SD to avoid P→S forced
        // downgrade"); naïve P/S does not (it checkpoints instead).
        assert!(private.must_self_downgrade(Ps3));
        assert!(!private.must_self_downgrade(PsNaive));
    }

    #[test]
    fn table1_shared_rows_ps_naive() {
        // Naïve P/S does not discriminate writers: every shared page SIs.
        for v in [view(&[0, 1], &[]), view(&[0, 1], &[0]), view(&[0, 1], &[0, 1])] {
            assert!(v.must_self_invalidate(PsNaive, 0));
            assert!(v.must_self_downgrade(PsNaive));
        }
    }

    #[test]
    fn table1_shared_rows_ps3() {
        // S,NW: no SI.
        assert!(!view(&[0, 1], &[]).must_self_invalidate(Ps3, 0));
        // S,SW: the single writer keeps its copy, other nodes invalidate.
        let sw = view(&[0, 1], &[0]);
        assert!(!sw.must_self_invalidate(Ps3, 0));
        assert!(sw.must_self_invalidate(Ps3, 1));
        // S,MW: everyone invalidates.
        let mw = view(&[0, 1], &[0, 1]);
        assert!(mw.must_self_invalidate(Ps3, 0));
        assert!(mw.must_self_invalidate(Ps3, 1));
        // All shared rows self-downgrade in P/S3.
        assert!(sw.must_self_downgrade(Ps3));
        assert!(mw.must_self_downgrade(Ps3));
    }

    #[test]
    fn private_ownership() {
        assert!(view(&[2], &[]).is_private_to(2));
        assert!(!view(&[2], &[]).is_private_to(0));
        assert!(!view(&[0, 2], &[]).is_private_to(2));
        assert!(!view(&[], &[]).is_private_to(0));
    }

    #[test]
    #[should_panic(expected = "128 nodes")]
    fn node_bit_bounds() {
        node_bit(128);
    }
}
