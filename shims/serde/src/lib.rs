//! Offline stand-in for the `serde` crate.
//!
//! This build environment has no access to a crates registry, so the
//! workspace replaces its external dependencies with local stand-ins (see
//! `shims/README.md`). This one keeps serde's *surface* — the
//! `Serialize`/`Deserialize` traits, the derive macros, and the
//! `#[serde(default)]` and `#[serde(flatten)]` field attributes — while
//! swapping the internals for a much smaller design: serialization goes
//! through a self-describing [`value::Value`] tree instead of the visitor
//! machinery. Everything the workspace needs (derived impls on plain
//! structs and enums, JSON round-trips via the `serde_json` stand-in)
//! behaves like the real thing; exotic serde features are intentionally
//! absent.

pub use serde_derive::{Deserialize, Serialize};

pub mod value;

use value::Value;

/// Serialization error (also used by the `serde_json` stand-in).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(pub String);

impl Error {
    /// A "expected X while decoding Y" error.
    pub fn expected(what: &str, context: &str) -> Error {
        Error(format!("expected {what} while decoding {context}"))
    }

    /// A missing-field error.
    pub fn missing(field: &str, context: &str) -> Error {
        Error(format!("missing field `{field}` in {context}"))
    }

    /// This error, raised while decoding field `field` (derive-generated
    /// decoders prefix each field's errors, so a nested error names its
    /// path).
    pub fn in_field(self, field: &str) -> Error {
        Error(format!("{field}: {}", self.0))
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// A type that can render itself as a [`Value`] tree.
pub trait Serialize {
    /// Convert to the self-describing value model.
    fn to_value(&self) -> Value;
}

/// A type that can rebuild itself from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Parse from the self-describing value model.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

// ---------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------

macro_rules! ser_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::UInt(u64::from(*self)) }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = v.as_u64().ok_or_else(|| Error::expected("unsigned integer", stringify!($t)))?;
                <$t>::try_from(n).map_err(|_| Error(format!("{n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}
ser_uint!(u8, u16, u32, u64);

impl Serialize for usize {
    fn to_value(&self) -> Value {
        Value::UInt(*self as u64)
    }
}
impl Deserialize for usize {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let n = v
            .as_u64()
            .ok_or_else(|| Error::expected("unsigned integer", "usize"))?;
        usize::try_from(n).map_err(|_| Error(format!("{n} out of range for usize")))
    }
}

impl Serialize for i64 {
    fn to_value(&self) -> Value {
        Value::Int(*self)
    }
}
impl Deserialize for i64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_i64().ok_or_else(|| Error::expected("integer", "i64"))
    }
}

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Float(*self)
    }
}
impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_f64().ok_or_else(|| Error::expected("number", "f64"))
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}
impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(Error::expected("bool", "bool")),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}
impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(Error::expected("string", "String")),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

// ---------------------------------------------------------------------
// Compound impls
// ---------------------------------------------------------------------

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}
impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}
impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Seq(xs) => xs.iter().map(T::from_value).collect(),
            _ => Err(Error::expected("sequence", "Vec")),
        }
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}
impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let xs = v
            .as_seq()
            .ok_or_else(|| Error::expected("sequence", "array"))?;
        if xs.len() != N {
            return Err(Error(format!(
                "array has {} elements, expected {N}",
                xs.len()
            )));
        }
        let items: Vec<T> = xs.iter().map(T::from_value).collect::<Result<_, _>>()?;
        Ok(items
            .try_into()
            .unwrap_or_else(|_| unreachable!("length checked above")))
    }
}

impl<V: Serialize> Serialize for std::collections::BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Map(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

impl<V: Deserialize> Deserialize for std::collections::BTreeMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Map(entries) => entries
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
                .collect(),
            _ => Err(Error::expected("map", "BTreeMap")),
        }
    }
}

// A `Value` serializes as itself. This lets checkpoint structs embed an
// opaque, already-structured state blob (e.g. a trait object's mutable
// state captured by the object itself) inside a derived container.
impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}
impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}

macro_rules! ser_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Seq(vec![$(self.$n.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Seq(xs) => {
                        const LEN: usize = 0 $(+ { let _ = $n; 1 })+;
                        if xs.len() != LEN {
                            return Err(Error(format!("tuple length {} != {LEN}", xs.len())));
                        }
                        Ok(($($t::from_value(&xs[$n])?,)+))
                    }
                    _ => Err(Error::expected("sequence", "tuple")),
                }
            }
        }
    )*};
}

ser_tuple! {
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(u32::from_value(&42u32.to_value()).unwrap(), 42);
        assert_eq!(i64::from_value(&(-7i64).to_value()).unwrap(), -7);
        assert_eq!(f64::from_value(&1.5f64.to_value()).unwrap(), 1.5);
        assert!(bool::from_value(&true.to_value()).unwrap());
        assert_eq!(
            String::from_value(&"hi".to_string().to_value()).unwrap(),
            "hi"
        );
    }

    #[test]
    fn int_coerces_to_float() {
        // JSON `3` must deserialize into an f64 field.
        assert_eq!(f64::from_value(&Value::UInt(3)).unwrap(), 3.0);
        assert_eq!(f64::from_value(&Value::Int(-3)).unwrap(), -3.0);
    }

    #[test]
    fn option_and_vec_round_trip() {
        let v: Option<u32> = None;
        assert_eq!(Option::<u32>::from_value(&v.to_value()).unwrap(), None);
        let v = Some(9u32);
        assert_eq!(Option::<u32>::from_value(&v.to_value()).unwrap(), Some(9));
        let xs = vec![(1u32, 2.5f64), (3, 4.5)];
        assert_eq!(Vec::<(u32, f64)>::from_value(&xs.to_value()).unwrap(), xs);
    }

    #[test]
    fn arrays_round_trip_and_check_length() {
        let a = [3u64, 1, 4, 1];
        assert_eq!(a.to_value(), vec![3u64, 1, 4, 1].to_value());
        assert_eq!(<[u64; 4]>::from_value(&a.to_value()).unwrap(), a);
        let short = vec![1u64, 2, 3].to_value();
        let e = <[u64; 4]>::from_value(&short).unwrap_err();
        assert_eq!(e.0, "array has 3 elements, expected 4");
        assert!(<[u64; 2]>::from_value(&Value::UInt(1)).is_err());
    }

    #[test]
    fn out_of_range_rejected() {
        assert!(u8::from_value(&Value::UInt(300)).is_err());
        assert!(u32::from_value(&Value::Int(-1)).is_err());
    }
}
