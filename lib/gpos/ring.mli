(** A bounded, lock-free ring of sequence-numbered entries: the flight
    recorder ([Telemetry.Recorder]) and the service event log
    ([Sre.Events]) both keep their last [capacity] entries in one.

    A writer claims a sequence number with one fetch-and-add, then stores
    its entry into slot [(seq - 1) mod capacity]. A store never replaces an
    entry with a higher sequence number, so a writer that claimed early and
    stores late (a flight entry whose number names a dump written in
    between) cannot evict a newer entry. Readers never see a torn entry:
    each slot holds a whole entry or none. *)

type 'a t

val create : int -> 'a t
(** A ring keeping the last [max 1 capacity] entries. *)

val capacity : 'a t -> int

val claim : 'a t -> int
(** The next sequence number (1-based, monotonic, never handed out twice). *)

val store : 'a t -> int -> 'a -> unit
(** Store the entry for a sequence number obtained from {!claim}. *)

val total : 'a t -> int
(** Sequence numbers ever claimed (>= entries retained). *)

val to_list : 'a t -> 'a list
(** Retained entries, oldest first. A read racing a writer may miss the
    slot being written; it never returns a torn entry. *)

val clear : 'a t -> unit
(** Drop every entry and restart numbering at 1. Not safe against
    concurrent writers: for tests and tools that own the ring. *)
