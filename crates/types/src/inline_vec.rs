//! A list that holds its first few items in place.
//!
//! Every transaction carries two or three short lists — its shard set, and
//! after preplay its read and write sets — and a replica decodes, replays,
//! holds and drops the blocks of every shard. As `Vec`s those lists cost a
//! heap allocation and a free each, per transaction and per replica.
//! [`InlineVec`] keeps up to `N` items inside the value that owns it, so a
//! block of transactions whose lists fit is one allocation, however many
//! transactions it carries. A list that outgrows `N` spills to a `Vec` and
//! stays correct, only slower.

use crate::wire::{Wire, WireError, WireReader, WireWriter};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::mem;
use std::ops::{Deref, DerefMut};

/// A list of up to `N` items held in place, spilling to a `Vec` past `N`.
///
/// It derefs to `[T]`, compares and hashes by its items (a spilled list
/// equals an unspilled one with the same items), and encodes exactly as a
/// `Vec<T>` does: a varint count, then the items. Empty slots hold
/// `T::default()`, which is why every way in needs `T: Default`.
#[derive(Clone)]
pub struct InlineVec<T, const N: usize> {
    repr: Repr<T, N>,
}

#[derive(Clone)]
enum Repr<T, const N: usize> {
    /// `items[..len]` are the list; the rest are defaults.
    Inline { len: usize, items: [T; N] },
    /// Past `N` items. Once spilled, a list keeps its allocation, as a
    /// cleared `Vec` does.
    Spilled(Vec<T>),
}

impl<T: Default, const N: usize> InlineVec<T, N> {
    /// An empty list; it allocates nothing.
    pub fn new() -> Self {
        InlineVec {
            repr: Repr::Inline {
                len: 0,
                items: std::array::from_fn(|_| T::default()),
            },
        }
    }

    /// An empty list with room for `capacity` items: in place up to `N`,
    /// otherwise one allocation of exactly `capacity`.
    pub fn with_capacity(capacity: usize) -> Self {
        if capacity <= N {
            InlineVec::new()
        } else {
            InlineVec {
                repr: Repr::Spilled(Vec::with_capacity(capacity)),
            }
        }
    }

    /// Appends `item`, moving the list to the heap if it holds `N` already.
    pub fn push(&mut self, item: T) {
        match &mut self.repr {
            Repr::Inline { len, items } if *len < N => {
                items[*len] = item;
                *len += 1;
            }
            Repr::Inline { items, .. } => {
                let mut spilled = Vec::with_capacity(2 * N + 1);
                spilled.extend(items.iter_mut().map(mem::take));
                spilled.push(item);
                self.repr = Repr::Spilled(spilled);
            }
            Repr::Spilled(items) => items.push(item),
        }
    }

    /// Removes every item, keeping a spilled list's allocation.
    pub fn clear(&mut self) {
        match &mut self.repr {
            Repr::Inline { len, items } => {
                items[..*len]
                    .iter_mut()
                    .for_each(|slot| *slot = T::default());
                *len = 0;
            }
            Repr::Spilled(items) => items.clear(),
        }
    }
}

impl<T: Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        InlineVec::new()
    }
}

/// Items that fit stay in place; a longer `Vec` is kept as it is.
impl<T: Default, const N: usize> From<Vec<T>> for InlineVec<T, N> {
    fn from(items: Vec<T>) -> Self {
        if items.len() > N {
            return InlineVec {
                repr: Repr::Spilled(items),
            };
        }
        let mut list = InlineVec::new();
        items.into_iter().for_each(|item| list.push(item));
        list
    }
}

impl<T, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        match &self.repr {
            Repr::Inline { len, items } => &items[..*len],
            Repr::Spilled(items) => items,
        }
    }
}

impl<T, const N: usize> DerefMut for InlineVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        match &mut self.repr {
            Repr::Inline { len, items } => &mut items[..*len],
            Repr::Spilled(items) => items,
        }
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a mut InlineVec<T, N> {
    type Item = &'a mut T;
    type IntoIter = std::slice::IterMut<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter_mut()
    }
}

impl<T: PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Eq, const N: usize> Eq for InlineVec<T, N> {}

/// Hashes as the slice of its items, as `Vec<T>` does.
impl<T: Hash, const N: usize> Hash for InlineVec<T, N> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

/// Prints as a list, as `Vec<T>` does.
impl<T: fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The bytes of a `Vec<T>`: a varint count, then the items. The count is
/// checked against the bytes left before any room is made for it.
impl<T: Wire + Default, const N: usize> Wire for InlineVec<T, N> {
    fn encode(&self, w: &mut WireWriter) {
        w.put_len(self.len());
        for item in self {
            item.encode(w);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = r.seq_len()?;
        let mut out = InlineVec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::AccessRecord;
    use crate::{Key, ShardId, Value};
    use proptest::prelude::*;
    use std::collections::hash_map::DefaultHasher;

    type Short = InlineVec<u64, 3>;

    fn spilled(items: &[u64]) -> Short {
        let mut list = Short::with_capacity(2 * 3 + 1);
        items.iter().for_each(|&item| list.push(item));
        list
    }

    fn hash_of(value: &impl Hash) -> u64 {
        let mut hasher = DefaultHasher::new();
        value.hash(&mut hasher);
        hasher.finish()
    }

    fn is_spilled<T, const N: usize>(list: &InlineVec<T, N>) -> bool {
        matches!(list.repr, Repr::Spilled(_))
    }

    #[test]
    fn an_empty_list_holds_nothing_in_place() {
        let list = Short::new();
        assert!(list.is_empty());
        assert!(!is_spilled(&list));
        assert_eq!(list, Short::default());
        assert!(!is_spilled(&Short::with_capacity(3)));
        assert!(is_spilled(&Short::with_capacity(4)));
    }

    /// Pushing past `N` moves the list to the heap with every item in the
    /// order it was pushed.
    #[test]
    fn spilling_keeps_the_order() {
        let mut list = Short::new();
        for item in 0..10u64 {
            list.push(item * 7);
            assert_eq!(is_spilled(&list), item >= 3);
            let expected: Vec<u64> = (0..=item).map(|i| i * 7).collect();
            assert_eq!(*list, expected[..]);
        }
    }

    /// A cleared list, in place or spilled, takes new items from its start
    /// and keeps none of the old ones.
    #[test]
    fn clear_then_push_starts_over() {
        for pushed in [0u64, 2, 3, 4, 9] {
            let mut list = Short::new();
            (0..pushed).for_each(|item| list.push(item));
            list.clear();
            assert!(list.is_empty());
            list.push(100);
            list.push(101);
            assert_eq!(*list, [100, 101], "after {pushed} items");
            (102..106).for_each(|item| list.push(item));
            assert_eq!(
                *list,
                [100, 101, 102, 103, 104, 105],
                "after {pushed} items"
            );
        }
        // A cleared slot drops what it held.
        let shared = Value::bytes(vec![1, 2, 3]);
        let mut reads = InlineVec::<AccessRecord, 3>::new();
        reads.push(AccessRecord::new(Key::scratch(1), shared.clone()));
        reads.clear();
        let Value::Bytes(bytes) = shared else {
            unreachable!("built as bytes")
        };
        assert_eq!(std::sync::Arc::strong_count(&bytes), 1);
    }

    #[test]
    fn a_spilled_and_an_unspilled_list_of_the_same_items_are_equal() {
        for len in 0..=3u64 {
            let items: Vec<u64> = (0..len).collect();
            let inline = Short::from(items.clone());
            let heap = spilled(&items);
            assert!(!is_spilled(&inline) && is_spilled(&heap));
            assert_eq!(inline, heap);
            assert_eq!(hash_of(&inline), hash_of(&heap));
            assert_eq!(hash_of(&inline), hash_of(&items));
            assert_eq!(format!("{inline:?}"), format!("{items:?}"));
        }
        assert_ne!(spilled(&[1, 2]), Short::from(vec![1, 2, 3]));
    }

    #[test]
    fn a_long_vec_converts_without_a_copy_and_a_short_one_moves_in_place() {
        let long: Vec<u64> = (0..5).collect();
        let address = long.as_ptr();
        let list = Short::from(long);
        assert!(is_spilled(&list));
        assert_eq!(list.as_ptr(), address);
        assert!(!is_spilled(&Short::from(vec![1, 2, 3])));
    }

    #[test]
    fn items_change_through_the_slice_and_both_iterators() {
        let mut list = InlineVec::<ShardId, 2>::from(vec![ShardId::new(1), ShardId::new(2)]);
        for shard in &mut list {
            *shard = ShardId::new(shard.as_inner() * 10);
        }
        list[0] = ShardId::new(5);
        let seen: Vec<u32> = (&list).into_iter().map(|s| s.as_inner()).collect();
        assert_eq!(seen, [5, 20]);
    }

    /// A count larger than the bytes left fails before the decoder makes
    /// room for it (`docs/NET.md`'s strict-decoder rule), spilled or not.
    #[test]
    fn the_decoder_checks_a_count_against_the_bytes_left() {
        let mut bytes = Vec::new();
        let mut w = WireWriter::new();
        w.put_varint(u64::MAX >> 1);
        bytes.extend(w.into_bytes());
        assert_eq!(
            Short::from_wire_bytes(&bytes),
            Err(WireError::LengthOverflow)
        );
        // Four items claimed, three bytes left.
        assert_eq!(
            Short::from_wire_bytes(&[4, 1, 2, 3]),
            Err(WireError::LengthOverflow)
        );
        // Two claimed, two bytes left, but the first item runs past them.
        assert_eq!(
            Short::from_wire_bytes(&[2, 0x80, 0x80]),
            Err(WireError::UnexpectedEof)
        );
        assert_eq!(
            *Short::from_wire_bytes(&[2, 1, 2]).expect("decodes"),
            [1, 2]
        );
    }

    proptest! {
        /// For every length up to twice the capacity, the list encodes to
        /// the bytes a `Vec` of the same items encodes to, decodes from
        /// them to an equal list, and measures them without writing.
        #[test]
        fn encodes_byte_for_byte_as_a_vec(
            items in prop::collection::vec(any::<u64>(), 0..7),
            values in prop::collection::vec(any::<i64>(), 0..7),
        ) {
            let list = Short::from(items.clone());
            let bytes = list.to_wire_bytes();
            prop_assert_eq!(&bytes, &items.to_wire_bytes());
            prop_assert_eq!(list.encoded_len(), bytes.len());
            let back = Short::from_wire_bytes(&bytes).expect("decodes");
            prop_assert_eq!(&back, &list);
            prop_assert_eq!(is_spilled(&back), items.len() > 3);

            let records: Vec<AccessRecord> = values
                .iter()
                .enumerate()
                .map(|(row, &v)| AccessRecord::new(Key::checking(row as u64), Value::int(v)))
                .collect();
            let reads = InlineVec::<AccessRecord, 3>::from(records.clone());
            prop_assert_eq!(reads.to_wire_bytes(), records.to_wire_bytes());
            prop_assert_eq!(
                InlineVec::<AccessRecord, 3>::from_wire_bytes(&records.to_wire_bytes())
                    .expect("decodes"),
                reads
            );
        }
    }
}
