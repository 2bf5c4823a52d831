//! The sealed index-width abstraction: every index-carrying container in
//! the stack (`CooMatrix<I>`, `CsrMatrix<I>`, `Hypergraph<I>`,
//! `CsrGraph<I>`, the partition engine) is generic over an [`IndexType`].
//!
//! Two widths are supported and the trait is sealed to exactly them:
//!
//! * `u32` — the fast path. Half the index memory, the right choice for
//!   every matrix whose fine-grain hypergraph stays below `u32::MAX` pins
//!   (all 14 catalog instances by a wide margin).
//! * `u64` — the big path, for instances whose vertex/net/pin counts
//!   exceed what 32 bits address.
//!
//! `Self::MAX` doubles as the *sentinel* ("no vertex" / "unassigned")
//! throughout the engine, so the usable id range is `0 .. MAX`, exclusive.
//! Width selection from parsed dimensions lives in [`IndexWidth::select`].

use crate::SparseError;

mod sealed {
    pub trait Sealed {}
    impl Sealed for u32 {}
    impl Sealed for u64 {}
}

/// Index width of a sparse structure: `u32` (fast path) or `u64` (big
/// path). Sealed — exactly these two implementations exist.
///
/// The supertraits `TryFrom<u64> + Into<u64>` give callers a portable
/// widening/narrowing story; the inherent helpers below add the checked
/// conversions used on untrusted input (typed [`SparseError::TooLarge`]
/// instead of silent truncation) and the debug-checked casts used where a
/// bound is proven by construction.
pub trait IndexType:
    sealed::Sealed
    + Copy
    + Default
    + Eq
    + Ord
    + std::hash::Hash
    + std::fmt::Debug
    + std::fmt::Display
    + Send
    + Sync
    + TryFrom<u64>
    + Into<u64>
    + 'static
{
    /// The additive identity.
    const ZERO: Self;
    /// One.
    const ONE: Self;
    /// Largest representable value — reserved as the engine's sentinel,
    /// so usable ids are `0 .. MAX` exclusive.
    const MAX: Self;
    /// Width in bits (32 or 64).
    const BITS: u32;
    /// Human-readable width name for reports ("u32" / "u64").
    const NAME: &'static str;

    /// The value as a `usize` array index. Indices originate from
    /// in-memory containers, so they fit `usize` on every platform this
    /// crate targets (debug-checked).
    fn index(self) -> usize;

    /// The value widened to `u64` (always lossless).
    fn as_u64(self) -> u64;

    /// Converts a loop counter / array length known to be in range back
    /// into an index (debug-checked; use [`IndexType::checked_usize`] for
    /// untrusted values).
    fn from_index(i: usize) -> Self;

    /// Checked narrowing from `u64`; `None` when the value does not fit
    /// (or equals the reserved sentinel `MAX`).
    fn from_u64_checked(v: u64) -> Option<Self>;

    /// Checked narrowing with a typed [`SparseError::TooLarge`] carrying
    /// what overflowed — the conversion used on every untrusted input.
    fn checked(v: u64, what: &'static str) -> Result<Self, SparseError> {
        Self::from_u64_checked(v).ok_or(SparseError::TooLarge {
            what,
            value: v,
            max: Self::MAX.as_u64() - 1,
        })
    }

    /// [`IndexType::checked`] for `usize` counts.
    fn checked_usize(v: usize, what: &'static str) -> Result<Self, SparseError> {
        Self::checked(v as u64, what)
    }
}

impl IndexType for u32 {
    const ZERO: Self = 0;
    const ONE: Self = 1;
    const MAX: Self = u32::MAX;
    const BITS: u32 = 32;
    const NAME: &'static str = "u32";

    #[inline(always)]
    fn index(self) -> usize {
        self as usize
    }

    #[inline(always)]
    fn as_u64(self) -> u64 {
        self as u64
    }

    #[inline(always)]
    fn from_index(i: usize) -> Self {
        debug_assert!(i <= u32::MAX as usize, "index {i} exceeds u32 range");
        i as u32 // lint: checked-cast — callers prove i is in u32 range; debug-asserted above
    }

    #[inline]
    fn from_u64_checked(v: u64) -> Option<Self> {
        if v >= u32::MAX as u64 {
            None
        } else {
            Some(v as u32) // lint: checked-cast — guarded right above
        }
    }
}

impl IndexType for u64 {
    const ZERO: Self = 0;
    const ONE: Self = 1;
    const MAX: Self = u64::MAX;
    const BITS: u32 = 64;
    const NAME: &'static str = "u64";

    #[inline(always)]
    fn index(self) -> usize {
        debug_assert!(
            self <= usize::MAX as u64,
            "index {self} exceeds usize range"
        );
        self as usize // in-memory ids fit usize on 64-bit targets; debug-asserted
    }

    #[inline(always)]
    fn as_u64(self) -> u64 {
        self
    }

    #[inline(always)]
    fn from_index(i: usize) -> Self {
        i as u64
    }

    #[inline]
    fn from_u64_checked(v: u64) -> Option<Self> {
        if v == u64::MAX {
            None
        } else {
            Some(v)
        }
    }
}

/// A runtime tag for the two supported index widths — the width-erased
/// counterpart of [`IndexType`], carried by [`crate::AnyCsrMatrix`] and
/// reported in decomposition outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexWidth {
    /// 32-bit indices (fast path).
    #[default]
    U32,
    /// 64-bit indices (big path).
    U64,
}

impl IndexWidth {
    /// Selects the narrowest width that can index the *fine-grain
    /// hypergraph* of a matrix with the given header: `Z + M` vertices
    /// (nonzeros plus worst-case dummy diagonals), `2M` nets, and
    /// `2 (Z + M)` pins must all stay below the `u32` sentinel for the
    /// fast path; anything larger selects `u64`.
    pub fn select(nrows: u64, ncols: u64, nnz: u64) -> IndexWidth {
        let cap = u32::MAX as u64;
        let dim = nrows.max(ncols);
        let vertices = nnz.saturating_add(dim); // worst case: every diagonal missing
        let nets = dim.saturating_mul(2);
        let pins = vertices.saturating_mul(2);
        if dim >= cap || vertices >= cap || nets >= cap || pins > cap {
            IndexWidth::U64
        } else {
            IndexWidth::U32
        }
    }

    /// Bits of this width (32 or 64).
    pub fn bits(self) -> u32 {
        match self {
            IndexWidth::U32 => 32,
            IndexWidth::U64 => 64,
        }
    }
}

impl std::fmt::Display for IndexWidth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexWidth::U32 => write!(f, "u32"),
            IndexWidth::U64 => write!(f, "u64"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_u32() {
        assert_eq!(u32::from_index(7).index(), 7);
        assert_eq!(u32::from_u64_checked(7), Some(7));
        assert_eq!(
            u32::from_u64_checked(u32::MAX as u64),
            None,
            "sentinel reserved"
        );
        assert_eq!(u32::from_u64_checked(1 << 40), None);
        assert_eq!(<u32 as IndexType>::NAME, "u32");
    }

    #[test]
    fn roundtrip_u64() {
        let big = (1u64 << 40) + 3;
        assert_eq!(u64::from_u64_checked(big), Some(big));
        assert_eq!(u64::from_u64_checked(u64::MAX), None, "sentinel reserved");
        assert_eq!(big.index(), big as usize);
    }

    #[test]
    fn checked_conversion_reports_too_large() {
        match u32::checked(1 << 40, "row count") {
            Err(SparseError::TooLarge { what, value, max }) => {
                assert_eq!(what, "row count");
                assert_eq!(value, 1 << 40);
                assert_eq!(max, u32::MAX as u64 - 1);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
        assert_eq!(u64::checked(1 << 40, "x").unwrap(), 1 << 40);
    }

    #[test]
    fn width_selection_rules() {
        // Every catalog-scale instance takes the fast path.
        assert_eq!(IndexWidth::select(74_752, 74_752, 615_774), IndexWidth::U32);
        // Pins 2(Z+M) crossing u32::MAX forces the big path even though
        // the raw nnz still fits u32.
        assert_eq!(
            IndexWidth::select(1 << 20, 1 << 20, 2_200_000_000),
            IndexWidth::U64
        );
        // Huge dimensions force it regardless of nnz.
        assert_eq!(IndexWidth::select(5_000_000_000, 3, 1), IndexWidth::U64);
        // Just below every threshold stays u32.
        assert_eq!(
            IndexWidth::select(1000, 1000, 2_000_000_000),
            IndexWidth::U32
        );
        assert_eq!(IndexWidth::U32.bits(), 32);
        assert_eq!(IndexWidth::U64.to_string(), "u64");
    }
}
