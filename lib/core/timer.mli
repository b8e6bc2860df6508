(** One thread for every deadline in the process.

    Step deadlines ({!Cancel}), RPC timeouts and the serving batcher's
    fill window all end in a callback run at a point in time. They share
    one thread, started on first use, which sleeps until the earliest
    registered time is due. *)

type t

val at : float -> (unit -> unit) -> t
(** [at time f] runs [f] on the timer thread once [Unix.gettimeofday ()]
    reaches [time], with no lock of the timer held. Callbacks due
    together run in time order. [f] must not block: it delays every
    later callback. An exception it raises is printed and dropped. *)

val cancel : t -> unit
(** Drop a callback that has not started. A callback the thread has
    already taken as due may still run. *)
