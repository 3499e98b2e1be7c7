(** Record payload encoding.

    The local databases store keyed integer records (account balances,
    counters, booking rows). A payload is [key length (2 bytes, big-endian);
    key bytes; value (8 bytes, big-endian)]. *)

(** [encode ~key ~value]. Raises [Invalid_argument] if the key is empty or
    longer than 255 bytes. *)
val encode : key:string -> value:int -> bytes

(** [decode payload] is [(key, value)]. Raises [Invalid_argument] on a
    malformed payload. *)
val decode : bytes -> string * int

