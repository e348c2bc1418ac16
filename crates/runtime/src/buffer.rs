//! Typed device buffers and the sealed scalar-transfer trait.
//!
//! [`DeviceScalar`] describes the host types that can cross the PCIe bus
//! as little-endian device scalars; it replaces the per-type
//! `h2d_f32`/`d2h_u32`-style method family with one generic pair
//! ([`crate::GpuExt::h2d_t`] / [`crate::GpuExt::d2h_t`]). [`Buffer`]
//! carries the element type and count alongside the raw [`DevPtr`], so
//! call sites stop hand-multiplying byte sizes.

use gpucmp_sim::DevPtr;
use std::borrow::Cow;
use std::marker::PhantomData;

mod sealed {
    /// Seals [`super::DeviceScalar`]: the device ABI is fixed, downstream
    /// crates cannot add representations.
    pub trait Sealed {}
}

/// A host scalar with a defined little-endian device representation.
///
/// Sealed: implemented exactly for the scalar types the simulated devices
/// understand (`u8 i8 u16 i16 u32 i32 u64 i64 f32 f64`).
pub trait DeviceScalar: sealed::Sealed + Copy + 'static {
    /// Size of the device representation in bytes.
    const BYTES: usize;

    /// The little-endian device representation of `data`. On a
    /// little-endian host that is `data`'s own memory, borrowed without a
    /// copy.
    fn slice_le_bytes(data: &[Self]) -> Cow<'_, [u8]>;

    /// Decode from exactly [`Self::BYTES`] little-endian bytes.
    fn from_le(bytes: &[u8]) -> Self;
}

macro_rules! device_scalar {
    ($($t:ty),* $(,)?) => {$(
        impl sealed::Sealed for $t {}
        impl DeviceScalar for $t {
            const BYTES: usize = std::mem::size_of::<$t>();

            #[inline]
            fn slice_le_bytes(data: &[Self]) -> Cow<'_, [u8]> {
                if cfg!(target_endian = "little") {
                    // SAFETY: a primitive number has no padding bytes, so
                    // every byte of the slice is initialised; `u8` has
                    // alignment 1; and the length is the slice's own size
                    // in bytes, borrowed for the slice's lifetime.
                    Cow::Borrowed(unsafe {
                        std::slice::from_raw_parts(
                            data.as_ptr().cast::<u8>(),
                            std::mem::size_of_val(data),
                        )
                    })
                } else {
                    Cow::Owned(data.iter().flat_map(|v| v.to_le_bytes()).collect())
                }
            }

            #[inline]
            fn from_le(bytes: &[u8]) -> Self {
                Self::from_le_bytes(bytes.try_into().expect("exact chunk"))
            }
        }
    )*};
}

device_scalar!(u8, i8, u16, i16, u32, i32, u64, i64, f32, f64);

/// A typed handle to a device allocation: base pointer + element count.
///
/// `Buffer<T>` is a plain value (`Copy`); it does not own or free device
/// memory — the session's bump arena lives for the session. What it adds
/// over a raw [`DevPtr`] is the element type and length, so transfers and
/// kernel arguments can be sized by the type system instead of by
/// hand-multiplied byte counts.
pub struct Buffer<T> {
    ptr: DevPtr,
    len: usize,
    _elem: PhantomData<fn() -> T>,
}

impl<T> Clone for Buffer<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Buffer<T> {}

impl<T> std::fmt::Debug for Buffer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Buffer")
            .field("ptr", &self.ptr)
            .field("len", &self.len)
            .field("elem", &std::any::type_name::<T>())
            .finish()
    }
}

impl<T: DeviceScalar> Buffer<T> {
    /// Wrap an existing allocation of `len` elements at `ptr`.
    pub fn from_raw(ptr: DevPtr, len: usize) -> Self {
        Buffer {
            ptr,
            len,
            _elem: PhantomData,
        }
    }

    /// Base device pointer.
    pub fn ptr(&self) -> DevPtr {
        self.ptr
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total size in bytes.
    pub fn bytes(&self) -> u64 {
        (self.len * T::BYTES) as u64
    }

    /// Device pointer to element `index` (bounds-checked).
    pub fn at(&self, index: usize) -> DevPtr {
        assert!(
            index <= self.len,
            "index {index} out of bounds for Buffer of {} elements",
            self.len
        );
        self.ptr.offset((index * T::BYTES) as u64)
    }
}

impl<T: DeviceScalar> From<Buffer<T>> for DevPtr {
    fn from(b: Buffer<T>) -> DevPtr {
        b.ptr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_representations() {
        let out = f32::slice_le_bytes(&[1.5, -0.0]);
        assert_eq!(*out, [0, 0, 0xc0, 0x3f, 0, 0, 0, 0x80]);
        assert_eq!(<f32 as DeviceScalar>::from_le(&out[0..4]), 1.5);
        if cfg!(target_endian = "little") {
            assert!(matches!(out, Cow::Borrowed(_)), "uploads copy nothing");
        }
        let out = i32::slice_le_bytes(&[-2]);
        assert_eq!(<i32 as DeviceScalar>::from_le(&out), -2);
        let out = u64::slice_le_bytes(&[0x0102_0304_0506_0708]);
        assert_eq!(*out, [8, 7, 6, 5, 4, 3, 2, 1]);
        assert!(u16::slice_le_bytes(&[]).is_empty());
    }

    #[test]
    fn buffer_geometry() {
        let b: Buffer<f32> = Buffer::from_raw(DevPtr(256), 10);
        assert_eq!(b.bytes(), 40);
        assert_eq!(b.at(3), DevPtr(256 + 12));
        assert!(!b.is_empty());
        let p: DevPtr = b.into();
        assert_eq!(p, DevPtr(256));
    }
}
