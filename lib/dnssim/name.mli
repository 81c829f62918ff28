(** DNS domain names.

    A name is a sequence of labels; ["h0.as3.net."] has labels
    [["h0"; "as3"; "net"]].  The root name has no labels.  Comparison is
    case-sensitive (the simulator never mixes cases). *)

type t

val root : t

val of_string : string -> t
(** Accepts with or without the trailing dot; [""] and ["."] give
    {!root}.  Raises [Invalid_argument] on empty labels (["a..b"]). *)

val to_string : t -> string
(** Always fully qualified (trailing dot). *)

val label_count : t -> int

val parent : t -> t option
(** Drop the leftmost label; [None] for the root. *)

val in_zone : t -> zone:t -> bool
(** Is [t] equal to or below the zone apex?  Every name is in the root
    zone. *)

val suffix : t -> int -> t
(** [suffix t k] keeps the [k] rightmost labels.  Raises
    [Invalid_argument] if [k] exceeds the label count. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val wire_size : t -> int
(** Encoded size in bytes (labels + length bytes + terminator). *)
