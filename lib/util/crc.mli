(** CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).

    Used as an integrity trailer on persisted execution specifications:
    cheap enough to verify on every load, and any single bit flip or
    truncation of the covered bytes changes the digest.  Not a
    cryptographic MAC — it detects substrate corruption, not tampering. *)

val crc32 : string -> int32
(** Digest of the whole string, initial value [0xFFFFFFFF], final xor
    [0xFFFFFFFF] (the standard zlib/PNG convention). *)

val update : int32 -> string -> int32
(** [update (crc32 a) b = crc32 (a ^ b)], and [crc32 s = update 0l s]:
    a running digest of a stream that arrives in pieces, as zlib's
    [crc32 (crc, buf, len)].  Allocates only its result. *)

val to_hex : int32 -> string
(** Fixed-width lowercase hex (8 digits), the persisted form. *)

val of_hex : string -> int32 option
(** Inverse of {!to_hex}; [None] when the string is not 8 hex digits. *)
