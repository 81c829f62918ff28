(** Flat hash table keyed by non-negative [int]s.

    Open addressing with linear probing over plain arrays: a lookup is
    a multiplicative hash plus a short probe over contiguous ints, with
    no per-binding box, bucket cell or polymorphic-hash call — built
    for the simulator's hot paths, where keys are packed addresses or
    prefix encodings and [Hashtbl]'s generic machinery shows up in the
    profile.

    Keys must be [>= 0] ([-1] marks an empty slot); [add] raises
    otherwise.  Not resistant to adversarial key sets — this is a
    simulator, keys come from address allocation patterns. *)

type 'a t

val create : dummy:'a -> unit -> 'a t
(** [create ~dummy ()] makes an empty table; it grows on demand.
    [dummy] fills empty value cells; it is never returned from
    lookups. *)

val find : 'a t -> int -> 'a option

val find_or : 'a t -> int -> default:'a -> 'a
(** The key's binding, or [default] when it has none: a lookup that
    allocates no option. *)

val mem : 'a t -> int -> bool

val add : 'a t -> int -> 'a -> unit
(** Insert or replace the binding for a key.
    @raise Invalid_argument on a negative key. *)

val remove : 'a t -> int -> unit
(** No-op when the key is absent.  Deletion shifts later bindings of
    the probe cluster back over the freed slot and leaves no
    tombstone: probe chains cross only live bindings, and remove+add
    churn at a steady size never reallocates the arrays. *)

val length : 'a t -> int
(** Number of bindings. *)

val probe_length : 'a t -> int -> int
(** Number of slots a lookup of this key inspects, counting the final
    hit or empty slot — the table's probe cost for that key.  Meant for
    tests and diagnostics. *)

val iter : 'a t -> f:(int -> 'a -> unit) -> unit
(** Visit bindings in unspecified order. *)
