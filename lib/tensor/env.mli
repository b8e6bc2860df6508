(** Strict readers for the [OCTF_*] environment variables.

    Every variable is declared once, as a {!t}, next to the setting it
    configures, and every read goes through {!get}. A value outside the
    variable's accepted set raises [Invalid_argument] naming the
    variable, the value it got and the accepted values: bad
    configuration fails loudly instead of falling back to a default.
    An unset or empty variable reads as absent. *)

type 'a t

val v : string -> (string -> ('a, string) result) -> 'a t
(** [v name parse] declares the variable [name] with the raw-value
    reader [parse], whose [Error] describes the accepted values. *)

val bool : string -> bool t
(** Accepts exactly [1|0|on|off|true|false|yes|no]. *)

val int : ?min:int -> string -> int t
(** Accepts an integer, [>= min] when [min] is given. *)

val name : 'a t -> string

val parse : 'a t -> string -> 'a
(** [parse var raw] reads [raw] as the value of [var].
    @raise Invalid_argument if [raw] is outside the accepted set. *)

val get : 'a t -> 'a option
(** The variable's value in the process environment: [None] when it is
    unset or empty.
    @raise Invalid_argument as {!parse} does. *)
