//! Flat records: a struct's field list, written to and read back from one
//! flat [`WireMsg`].
//!
//! A struct declared inside [`record!`](crate::record!) lists each field
//! once; the macro derives a writer (one wire field per leaf, nested
//! records keyed by path, e.g. `dispatch_stalls.rob_full`) and a typed
//! reader. Integer, boolean and string leaves round-trip losslessly;
//! floats render with six decimals. The simulator's statistics and the
//! `BENCH_*.json` report rows are records.
//!
//! ```
//! use aim_types::record::Record;
//!
//! aim_types::record! {
//!     /// Hit/miss counters.
//!     #[derive(Debug, PartialEq)]
//!     pub struct Counts {
//!         /// Hits.
//!         pub hits: u64,
//!         /// Per-level hits, when the levels are modeled.
//!         pub levels: Option<(u64, u64, u64)>,
//!     }
//! }
//!
//! let counts = Counts { hits: 3, levels: None };
//! assert_eq!(counts.write().to_json(), r#"{"hits":3}"#);
//! assert_eq!(Counts::read(&counts.write()), Ok(counts));
//! ```

use crate::wire::WireMsg;

/// A value stored under one key of a flat [`WireMsg`]: a leaf as one
/// field, a record as one field per leaf under `key.`-prefixed names.
pub trait Field: Sized {
    /// Appends this value under `key`.
    fn put(&self, key: &str, msg: &mut WireMsg);

    /// Reads the value stored under `key`.
    ///
    /// # Errors
    ///
    /// Returns a one-line message naming the missing or mistyped field.
    fn take(key: &str, msg: &WireMsg) -> Result<Self, String>;
}

/// A struct declared with [`record!`](crate::record!): a [`Field`] that is
/// a whole message.
pub trait Record: Field {
    /// The record as one flat message, fields in declaration order.
    fn write(&self) -> WireMsg {
        let mut msg = WireMsg::new();
        self.put("", &mut msg);
        msg
    }

    /// Rebuilds the record from [`Record::write`]'s message.
    ///
    /// # Errors
    ///
    /// Returns a one-line message naming the first missing or mistyped
    /// field.
    fn read(msg: &WireMsg) -> Result<Self, String> {
        Self::take("", msg)
    }
}

/// The key of field `name` inside the value stored under `prefix` (the
/// top level's prefix is empty).
pub fn join(prefix: &str, name: &str) -> String {
    if prefix.is_empty() {
        name.to_string()
    } else {
        format!("{prefix}.{name}")
    }
}

/// Leaves stored as one wire value: `$put` writes it, `$get` reads it.
macro_rules! leaf_field {
    ($($ty:ty: $put:ident, $get:ident, $what:literal;)*) => {$(
        impl Field for $ty {
            fn put(&self, key: &str, msg: &mut WireMsg) {
                msg.$put(key, *self);
            }

            fn take(key: &str, msg: &WireMsg) -> Result<$ty, String> {
                msg.$get(key)
                    .ok_or_else(|| format!("record field `{key}` is missing or not {}", $what))
            }
        }
    )*};
}

leaf_field! {
    u64: put_u64, u64_field, "an integer";
    f64: put_f64, f64_field, "a number";
    bool: put_bool, bool_field, "a boolean";
}

impl Field for String {
    fn put(&self, key: &str, msg: &mut WireMsg) {
        msg.put_str(key, self);
    }

    fn take(key: &str, msg: &WireMsg) -> Result<String, String> {
        let text = msg.str_field(key).map(str::to_string);
        text.ok_or_else(|| format!("record field `{key}` is missing or not a string"))
    }
}

/// Narrower integers travel as `u64` and are range-checked on the way back.
macro_rules! narrow_field {
    ($($ty:ty),*) => {$(
        impl Field for $ty {
            fn put(&self, key: &str, msg: &mut WireMsg) {
                msg.put_u64(key, *self as u64);
            }

            fn take(key: &str, msg: &WireMsg) -> Result<$ty, String> {
                <$ty>::try_from(u64::take(key, msg)?)
                    .map_err(|_| format!("record field `{key}` overflows {}", stringify!($ty)))
            }
        }
    )*};
}

narrow_field!(usize, u32);

/// `None` writes nothing. On the way back the value is present iff `key`
/// or any `key.`-prefixed field is, so `T` must write at least one field.
impl<T: Field> Field for Option<T> {
    fn put(&self, key: &str, msg: &mut WireMsg) {
        if let Some(value) = self {
            value.put(key, msg);
        }
    }

    fn take(key: &str, msg: &WireMsg) -> Result<Option<T>, String> {
        let nested = join(key, "");
        let present = msg.keys().any(|k| k == key || k.starts_with(&nested));
        present.then(|| T::take(key, msg)).transpose()
    }
}

/// A triple's members are keyed `0`, `1`, `2`.
impl<A: Field, B: Field, C: Field> Field for (A, B, C) {
    fn put(&self, key: &str, msg: &mut WireMsg) {
        self.0.put(&join(key, "0"), msg);
        self.1.put(&join(key, "1"), msg);
        self.2.put(&join(key, "2"), msg);
    }

    fn take(key: &str, msg: &WireMsg) -> Result<(A, B, C), String> {
        let at = |i| join(key, i);
        Ok((A::take(&at("0"), msg)?, B::take(&at("1"), msg)?, C::take(&at("2"), msg)?))
    }
}

/// Declares structs whose field lists are also their flat wire records.
///
/// Wraps ordinary struct definitions (attributes, doc comments and
/// visibility pass through) and implements
/// [`Field`](crate::record::Field) and [`Record`](crate::record::Record)
/// for each: fields are written in declaration order, each under its name,
/// and read back by name. Every field's type must be a `Field`. See the
/// [module docs](mod@crate::record) for an example.
#[macro_export]
macro_rules! record {
    ($(
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$field_meta:meta])*
                $field_vis:vis $field:ident : $ty:ty
            ),* $(,)?
        }
    )*) => {$(
        $(#[$meta])*
        $vis struct $name {
            $(
                $(#[$field_meta])*
                $field_vis $field: $ty,
            )*
        }

        impl $crate::record::Field for $name {
            fn put(&self, key: &str, msg: &mut $crate::wire::WireMsg) {
                $(
                    let name = $crate::record::join(key, stringify!($field));
                    $crate::record::Field::put(&self.$field, &name, msg);
                )*
            }

            fn take(key: &str, msg: &$crate::wire::WireMsg) -> Result<Self, String> {
                Ok($name {
                    $(
                        $field: $crate::record::Field::take(
                            &$crate::record::join(key, stringify!($field)),
                            msg,
                        )?,
                    )*
                })
            }
        }

        impl $crate::record::Record for $name {}
    )*};
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::record! {
        #[derive(Debug, Clone, Default, PartialEq)]
        struct Leaf {
            hits: u64,
            peak: usize,
            periods: u32,
        }

        #[derive(Debug, Clone, Default, PartialEq)]
        struct Tree {
            name: String,
            ok: bool,
            rate: f64,
            three: (Leaf, Leaf, Leaf),
            maybe: Option<Leaf>,
        }
    }

    fn tree() -> Tree {
        let leaf = |n: u64| Leaf { hits: n, peak: n as usize + 1, periods: n as u32 + 2 };
        Tree {
            name: "a \"b\"".to_string(),
            ok: true,
            rate: 0.5,
            three: (leaf(10), leaf(20), leaf(30)),
            maybe: Some(leaf(40)),
        }
    }

    #[test]
    fn records_flatten_to_dotted_keys_and_round_trip_through_text() {
        let keys: Vec<String> = tree().write().keys().map(str::to_string).collect();
        assert_eq!(keys[..5], ["name", "ok", "rate", "three.0.hits", "three.0.peak"]);
        assert_eq!(keys[keys.len() - 1], "maybe.periods");
        for t in [tree(), Tree { maybe: None, ..tree() }, Tree::default()] {
            let text = t.write().to_json();
            assert_eq!(Tree::read(&WireMsg::parse(&text).unwrap()), Ok(t), "{text}");
        }
        assert!(!Tree { maybe: None, ..tree() }.write().to_json().contains("maybe"));
    }

    #[test]
    fn reader_names_missing_mistyped_and_overflowing_fields() {
        let read = |text: &str| Leaf::read(&WireMsg::parse(text).unwrap()).unwrap_err();
        assert!(read(r#"{"hits":1,"peak":2}"#).contains("`periods` is missing"));
        assert!(read(r#"{"hits":"1","peak":2,"periods":3}"#).contains("`hits`"));
        assert!(read(r#"{"hits":1,"peak":2,"periods":4294967296}"#).contains("overflows u32"));
        let text = tree().write().to_json().replace("\"maybe.peak\":41,", "");
        let err = Tree::read(&WireMsg::parse(&text).unwrap()).unwrap_err();
        assert!(err.contains("`maybe.peak`"), "{err}");
    }
}
