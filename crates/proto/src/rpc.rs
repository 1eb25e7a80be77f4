//! SUN RPC (ONC RPC v2) call and reply headers, AUTH_NONE only.
//!
//! This is the layer NCache's classifier reads: "The Remote Procedure Call
//! (RPC) field in NFS messages specifies the operation type. Among incoming
//! NFS packets, only the payloads of NFS write request packets are cached
//! ... and among outgoing NFS packets only the payloads of NFS read replies
//! are replaced" (paper §3.3).

use crate::error::{need, DecodeError, Result};

/// Encoded length of a call header with AUTH_NONE credentials.
pub const CALL_LEN: usize = 40;
/// Encoded length of an accepted-success reply header.
pub const REPLY_LEN: usize = 24;
/// RPC program number for NFS.
pub const PROG_NFS: u32 = 100_003;
/// The NFS program version this subset speaks.
pub const NFS_VERS: u32 = 2;

const MSG_CALL: u32 = 0;
const MSG_REPLY: u32 = 1;
const RPC_VERSION: u32 = 2;

fn set_u32(buf: &mut [u8], at: usize, v: u32) {
    buf[at..at + 4].copy_from_slice(&v.to_be_bytes());
}

fn get_u32(buf: &[u8], at: usize) -> u32 {
    u32::from_be_bytes(buf[at..at + 4].try_into().expect("4 bytes"))
}

/// An RPC call header (credentials and verifier are AUTH_NONE).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct RpcCall {
    /// Transaction id, echoed by the reply.
    pub xid: u32,
    /// Program number (e.g. [`PROG_NFS`]).
    pub prog: u32,
    /// Program version.
    pub vers: u32,
    /// Procedure number within the program.
    pub proc: u32,
}

impl RpcCall {
    /// An NFS call for procedure `proc`.
    pub fn nfs(xid: u32, proc: u32) -> Self {
        RpcCall {
            xid,
            prog: PROG_NFS,
            vers: NFS_VERS,
            proc,
        }
    }

    /// Encodes to the 40-byte wire form on the stack.
    pub fn encode_array(&self) -> [u8; CALL_LEN] {
        // Credentials and verifier (AUTH_NONE, zero length) stay zero.
        let mut b = [0u8; CALL_LEN];
        set_u32(&mut b, 0, self.xid);
        set_u32(&mut b, 4, MSG_CALL);
        set_u32(&mut b, 8, RPC_VERSION);
        set_u32(&mut b, 12, self.prog);
        set_u32(&mut b, 16, self.vers);
        set_u32(&mut b, 20, self.proc);
        b
    }

    /// [`RpcCall::encode_array`] as an owned vector.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_array().to_vec()
    }

    /// Decodes from the head of `buf`.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] on short input; [`DecodeError::BadField`]
    /// if the message is not a version-2 RPC call with AUTH_NONE.
    pub fn decode(buf: &[u8]) -> Result<RpcCall> {
        need(buf, CALL_LEN)?;
        if get_u32(buf, 4) != MSG_CALL {
            return Err(DecodeError::BadField("message type"));
        }
        if get_u32(buf, 8) != RPC_VERSION {
            return Err(DecodeError::BadField("rpc version"));
        }
        if get_u32(buf, 24) != 0 || get_u32(buf, 28) != 0 {
            return Err(DecodeError::Unsupported("non-AUTH_NONE credentials"));
        }
        Ok(RpcCall {
            xid: get_u32(buf, 0),
            prog: get_u32(buf, 12),
            vers: get_u32(buf, 16),
            proc: get_u32(buf, 20),
        })
    }
}

/// An accepted, successful RPC reply header.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct RpcReply {
    /// Transaction id of the call being answered.
    pub xid: u32,
}

impl RpcReply {
    /// A success reply to `xid`.
    pub fn new(xid: u32) -> Self {
        RpcReply { xid }
    }

    /// Encodes to the 24-byte wire form on the stack.
    pub fn encode_array(&self) -> [u8; REPLY_LEN] {
        // MSG_ACCEPTED, the AUTH_NONE verifier and SUCCESS are all zero.
        let mut b = [0u8; REPLY_LEN];
        set_u32(&mut b, 0, self.xid);
        set_u32(&mut b, 4, MSG_REPLY);
        b
    }

    /// [`RpcReply::encode_array`] as an owned vector.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_array().to_vec()
    }

    /// Decodes from the head of `buf`.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] on short input; [`DecodeError::BadField`]
    /// if the message is not an accepted, successful reply.
    pub fn decode(buf: &[u8]) -> Result<RpcReply> {
        need(buf, REPLY_LEN)?;
        if get_u32(buf, 4) != MSG_REPLY {
            return Err(DecodeError::BadField("message type"));
        }
        if get_u32(buf, 8) != 0 {
            return Err(DecodeError::Unsupported("denied reply"));
        }
        if get_u32(buf, 20) != 0 {
            return Err(DecodeError::Unsupported("non-success accept status"));
        }
        Ok(RpcReply {
            xid: get_u32(buf, 0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use check::gen::*;
    use check::{prop_assert_eq, property};

    #[test]
    fn call_round_trip() {
        let c = RpcCall::nfs(0xdead_beef, 6);
        let enc = c.encode();
        assert_eq!(enc.len(), CALL_LEN);
        assert_eq!(RpcCall::decode(&enc), Ok(c));
    }

    #[test]
    fn reply_round_trip() {
        let r = RpcReply::new(42);
        let enc = r.encode();
        assert_eq!(enc.len(), REPLY_LEN);
        assert_eq!(RpcReply::decode(&enc), Ok(r));
    }

    #[test]
    fn call_and_reply_are_distinguished() {
        let call = RpcCall::nfs(1, 2).encode();
        let reply = RpcReply::new(1).encode();
        assert!(RpcCall::decode(&reply).is_err());
        assert!(RpcReply::decode(&call).is_err());
    }

    #[test]
    fn bad_rpc_version_rejected() {
        let mut enc = RpcCall::nfs(1, 2).encode();
        enc[11] = 9;
        assert_eq!(RpcCall::decode(&enc), Err(DecodeError::BadField("rpc version")));
    }

    #[test]
    fn non_auth_none_rejected() {
        let mut enc = RpcCall::nfs(1, 2).encode();
        enc[27] = 1; // cred flavor = AUTH_SYS
        assert_eq!(
            RpcCall::decode(&enc),
            Err(DecodeError::Unsupported("non-AUTH_NONE credentials"))
        );
    }

    #[test]
    fn truncated_inputs() {
        assert!(RpcCall::decode(&[0; 39]).is_err());
        assert!(RpcReply::decode(&[0; 23]).is_err());
    }

    #[test]
    fn encoders_lay_fields_out_in_wire_order() {
        let words = |ws: &[u32]| ws.iter().flat_map(|w| w.to_be_bytes()).collect::<Vec<u8>>();
        let c = RpcCall { xid: 7, prog: PROG_NFS, vers: NFS_VERS, proc: 6 };
        assert_eq!(
            c.encode(),
            words(&[7, MSG_CALL, RPC_VERSION, PROG_NFS, NFS_VERS, 6, 0, 0, 0, 0])
        );
        assert_eq!(RpcReply::new(9).encode(), words(&[9, MSG_REPLY, 0, 0, 0, 0]));
    }

    property! {
        fn prop_call_round_trip(xid in any_u32(), prog in any_u32(), vers in any_u32(), pr in any_u32()) {
            let c = RpcCall { xid, prog, vers, proc: pr };
            prop_assert_eq!(RpcCall::decode(&c.encode()), Ok(c));
        }

        fn prop_reply_round_trip(xid in any_u32()) {
            let r = RpcReply::new(xid);
            prop_assert_eq!(RpcReply::decode(&r.encode()), Ok(r));
        }
    }
}
