//! Message payloads and envelopes.

use std::sync::Arc;

/// The data carried by a message.
///
/// `F64`, `SharedF64` and `U64` carry real data (matrix elements and
/// partition metadata respectively). `Phantom` carries only a logical
/// element count: it is used in simulated-time runs at paper-scale problem
/// sizes where materializing the matrices would need tens of gigabytes. All
/// variants report the same byte size to the cost model that the real
/// message would have.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Matrix elements (8 bytes each).
    F64(Vec<f64>),
    /// Matrix elements in an immutable reference-counted buffer: cloning
    /// the payload (what a broadcast does once per child) copies a pointer,
    /// not the elements, so over the channel backend every receiver ends up
    /// holding the sender's buffer. A broadcast wraps an owned `F64` this
    /// way before its sends, so its root gets a `SharedF64` back. Nobody
    /// may write through it; the one writer in the crate, injected wire
    /// corruption, copies first. Same `bytes()`, same cost, same `"F64"`
    /// kind and TCP frame as `F64` — a TCP sender writes the frame from
    /// the buffer itself, and a TCP receiver gets an owned `F64`.
    SharedF64(Arc<Vec<f64>>),
    /// Metadata words (8 bytes each).
    U64(Vec<u64>),
    /// A size-only stand-in for `elems` f64 elements.
    Phantom {
        /// Logical number of f64 elements the message represents.
        elems: usize,
    },
}

impl Payload {
    /// Logical number of 8-byte elements in the message.
    pub fn elems(&self) -> usize {
        match self {
            Payload::F64(v) => v.len(),
            Payload::SharedF64(v) => v.len(),
            Payload::U64(v) => v.len(),
            Payload::Phantom { elems } => *elems,
        }
    }

    /// Wire size in bytes, as seen by the cost model.
    pub fn bytes(&self) -> usize {
        self.elems() * 8
    }

    /// The variant name, for error reporting.
    pub fn kind(&self) -> &'static str {
        match self {
            Payload::F64(_) | Payload::SharedF64(_) => "F64",
            Payload::U64(_) => "U64",
            Payload::Phantom { .. } => "Phantom",
        }
    }

    /// Extracts an `f64` payload as an owned vector (a shared buffer is
    /// copied unless this is its last holder).
    ///
    /// # Panics
    /// Panics if the payload is not `F64`/`SharedF64`.
    pub fn into_f64(self) -> Vec<f64> {
        self.try_into_f64().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Extracts a `u64` payload.
    ///
    /// # Panics
    /// Panics if the payload is not `U64`.
    pub fn into_u64(self) -> Vec<u64> {
        match self {
            Payload::U64(v) => v,
            other => panic!("expected U64 payload, got {other:?}"),
        }
    }

    /// Fallible variant of [`Payload::into_f64`].
    pub fn try_into_f64(self) -> crate::error::CommResult<Vec<f64>> {
        match self {
            Payload::F64(v) => Ok(v),
            Payload::SharedF64(v) => Ok(Arc::try_unwrap(v).unwrap_or_else(|held| held.to_vec())),
            other => Err(crate::error::CommError::PayloadType {
                expected: "F64",
                got: other.kind(),
            }),
        }
    }

    /// Extracts an `f64` payload without copying it: a `SharedF64` hands
    /// over its reference, an owned `F64` vector moves behind a new one.
    pub fn try_into_shared_f64(self) -> crate::error::CommResult<Arc<Vec<f64>>> {
        match self {
            Payload::SharedF64(v) => Ok(v),
            other => other.try_into_f64().map(Arc::new),
        }
    }

    /// The payload to hand to several destinations: an owned `F64` moves
    /// behind a reference count (no copy), so that each clone costs one;
    /// every other payload is returned as it is.
    pub(crate) fn into_shared(self) -> Payload {
        match self {
            Payload::F64(v) => Payload::SharedF64(Arc::new(v)),
            other => other,
        }
    }

    /// Fallible variant of [`Payload::into_u64`].
    pub fn try_into_u64(self) -> crate::error::CommResult<Vec<u64>> {
        match self {
            Payload::U64(v) => Ok(v),
            other => Err(crate::error::CommError::PayloadType {
                expected: "U64",
                got: other.kind(),
            }),
        }
    }
}

/// A message in flight between two global ranks.
#[derive(Debug)]
pub(crate) struct Envelope {
    /// Global rank of the sender.
    pub src: usize,
    /// Communicator identity (so sub-communicators do not cross-talk).
    pub comm_id: u64,
    /// User tag.
    pub tag: u64,
    /// Virtual time at which the message is fully delivered.
    pub arrival: f64,
    /// Per-sender message sequence number, assigned only when an event
    /// sink is installed (see `span::SpanKind::Send`); 0 otherwise. Lets
    /// the trace layer match a `Recv` span to the `Send` that fed it.
    pub seq: u64,
    /// Per-link `(src, dst)` transport sequence number, assigned only
    /// when a `LinkPlan` is installed (see `fault::LinkPlan`); `None`
    /// otherwise. Drives duplicate suppression and in-order reassembly
    /// in the receiver's mailbox — a cumulative ack per link is implied
    /// by the receiver's `next_expected` cursor.
    pub link_seq: Option<u64>,
    /// The data.
    pub payload: Payload,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_sizes() {
        assert_eq!(Payload::F64(vec![1.0; 10]).bytes(), 80);
        assert_eq!(Payload::U64(vec![1; 3]).elems(), 3);
        assert_eq!(Payload::Phantom { elems: 1000 }.bytes(), 8000);
    }

    #[test]
    fn into_f64_roundtrip() {
        let v = vec![1.5, 2.5];
        assert_eq!(Payload::F64(v.clone()).into_f64(), v);
    }

    #[test]
    fn shared_f64_is_an_f64_that_clones_by_reference() {
        let buf = Arc::new(vec![1.5, 2.5, 3.5]);
        let p = Payload::SharedF64(Arc::clone(&buf));
        assert_eq!((p.elems(), p.bytes(), p.kind()), (3, 24, "F64"));
        // A clone is the same buffer, and extraction hands it over as is.
        assert!(Arc::ptr_eq(&p.clone().try_into_shared_f64().unwrap(), &buf));
        // An owned vector moves behind a reference without a copy.
        let owned = vec![4.0, 5.0];
        let at = owned.as_ptr();
        let got = Payload::F64(owned).try_into_shared_f64().unwrap();
        assert_eq!(got.as_ptr(), at);
        // While shared, `into_f64` copies; the last holder gets the buffer.
        drop(got);
        assert_eq!(p.clone().into_f64(), *buf);
        drop(buf);
        let at = match &p {
            Payload::SharedF64(v) => v.as_ptr(),
            _ => unreachable!(),
        };
        let last = p.into_f64();
        assert_eq!(last.as_ptr(), at);
        assert_eq!(
            Payload::U64(vec![1]).try_into_shared_f64(),
            Err(crate::error::CommError::PayloadType {
                expected: "F64",
                got: "U64"
            })
        );
    }

    #[test]
    #[should_panic(expected = "expected F64")]
    fn into_f64_rejects_phantom() {
        Payload::Phantom { elems: 1 }.into_f64();
    }

    #[test]
    fn try_into_reports_typed_mismatch() {
        use crate::error::CommError;
        assert_eq!(Payload::U64(vec![3]).try_into_u64().unwrap(), vec![3]);
        assert_eq!(
            Payload::Phantom { elems: 1 }.try_into_f64(),
            Err(CommError::PayloadType {
                expected: "F64",
                got: "Phantom"
            })
        );
        assert_eq!(
            Payload::F64(vec![]).try_into_u64(),
            Err(CommError::PayloadType {
                expected: "U64",
                got: "F64"
            })
        );
    }
}
