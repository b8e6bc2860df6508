(* The strict OCTF_* parser: every variable, each accepted spelling and
   rejected values. Driven with raw strings through each variable's own
   declaration, so the process environment does not matter. The one
   Session.create case that reads a real variable lives in
   test_session.ml. *)

open Octf_tensor
open Octf
module F = Fault_injector
module Runtime = Octf_net.Runtime

type case = Case : 'a Env.t * (string * 'a) list * string list -> case

let bools =
  [ ("1", true); ("0", false); ("on", true); ("off", false); ("true", true);
    ("false", false); ("yes", true); ("no", false) ]

let bad_bools = [ "of"; "2"; "enabled"; "ON" ]

let ints values = List.map (fun s -> (s, int_of_string s)) values

let cases =
  [
    Case
      ( Scheduler.env,
        [ ("inline", Scheduler.Inline); ("serial", Scheduler.Inline);
          ("pool", Scheduler.Pool); ("parallel", Scheduler.Pool) ],
        [ "poool"; "1"; "inline,pool" ] );
    Case (Mem_plan.env, bools, bad_bools);
    Case (Session.Config.fusion_env, bools, bad_bools);
    Case (Session.Config.quantize_env, bools, bad_bools);
    Case (Session.Config.max_in_flight_env, ints [ "1"; "4" ], [ "0"; "-1"; "two" ]);
    Case (Parallel.env, ints [ "1"; "8" ], [ "0"; "abc"; "1.5" ]);
    Case (Buffer_pool.env, ints [ "0"; "256" ], [ "abc"; "-1" ]);
    Case (Domain_pool.env, ints [ "1"; "3" ], [ "0"; "-2"; "many" ]);
    Case
      ( F.env,
        [ ("kernel:MatMul@3", [ F.Fail_kernel { pattern = "MatMul"; step = 3 } ]);
          ( "kill:ps/0@40,drop:grad@2",
            [ F.Kill_task { job = "ps"; task = 0; step = 40 };
              F.Drop_send { pattern = "grad"; step = 2 } ] ) ],
        [ "bogus"; "kill:ps@x"; "kernel:MatMul@3,nope" ] );
    Case (F.seed_env, ints [ "0"; "-7"; "42" ], [ "abc"; "1.5" ]);
    Case (Runtime.trace_env, bools, bad_bools);
    Case (Runtime.heartbeat_ms_env, ints [ "1"; "200" ], [ "0"; "0.5"; "abc" ]);
    Case (Runtime.heartbeat_misses_env, ints [ "1"; "3" ], [ "0"; "abc" ]);
    Case (Runtime.connect_timeout_ms_env, ints [ "1"; "500" ], [ "0"; "abc" ]);
    Case (Runtime.rpc_timeout_ms_env, ints [ "1"; "30000" ], [ "0"; "abc" ]);
    (* bench/main.exe declares its smoke switch locally, the same way *)
    Case (Env.bool "OCTF_BENCH_SMOKE", bools, bad_bools);
  ]

let test_every_variable () =
  List.iter
    (fun (Case (var, accepted, rejected)) ->
      let name = Env.name var in
      List.iter
        (fun (raw, expected) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s=%s accepted" name raw)
            true
            (Env.parse var raw = expected))
        accepted;
      List.iter
        (fun raw ->
          match Env.parse var raw with
          | _ -> Alcotest.failf "%s=%s was accepted" name raw
          | exception Invalid_argument msg ->
              (* names the variable and the value, then what it accepts *)
              let prefix = Printf.sprintf "%s=%S: " name raw in
              Alcotest.(check bool)
                (Printf.sprintf "%s=%s: message %S" name raw msg)
                true
                (String.starts_with ~prefix msg
                && String.length msg > String.length prefix))
        rejected)
    cases

let test_bool_message_lists_spellings () =
  Alcotest.check_raises "OCTF_FUSION=of"
    (Invalid_argument
       {|OCTF_FUSION="of": expected 1|0|on|off|true|false|yes|no|})
    (fun () -> ignore (Env.parse Session.Config.fusion_env "of"))

let suite =
  [
    Alcotest.test_case "every variable parses strictly" `Quick
      test_every_variable;
    Alcotest.test_case "bool rejection lists spellings" `Quick
      test_bool_message_lists_spellings;
  ]
