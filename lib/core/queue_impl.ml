open Octf_tensor

exception Closed of string

type kind = Fifo | Shuffle of Rng.t

(* Per-queue series, labeled by queue name. Queues with the same name
   (e.g. one "grad_queue" per session) share series; the depth gauges
   then reflect the most recent update, and the counters aggregate. *)
type queue_metrics = {
  m_depth : Metrics.Gauge.m;
  m_depth_max : Metrics.Gauge.m;
  m_enqueued : Metrics.Counter.m;
  m_dequeued : Metrics.Counter.m;
  m_blocked_enq : Metrics.Gauge.m;
  m_blocked_deq : Metrics.Gauge.m;
  m_closed : Metrics.Counter.m;
}

let queue_metrics name =
  let labels = [ ("queue", name) ] in
  {
    m_depth =
      Metrics.Gauge.v ~help:"Current queue depth (elements)" ~labels
        "octf_queue_depth";
    m_depth_max =
      Metrics.Gauge.v ~help:"High-watermark queue depth" ~labels
        "octf_queue_depth_max";
    m_enqueued =
      Metrics.Counter.v ~help:"Elements enqueued" ~labels
        "octf_queue_enqueued_total";
    m_dequeued =
      Metrics.Counter.v ~help:"Elements dequeued" ~labels
        "octf_queue_dequeued_total";
    m_blocked_enq =
      Metrics.Gauge.v ~help:"Enqueuers currently blocked on a full queue"
        ~labels "octf_queue_blocked_enqueuers";
    m_blocked_deq =
      Metrics.Gauge.v ~help:"Dequeuers currently blocked on an empty queue"
        ~labels "octf_queue_blocked_dequeuers";
    m_closed =
      Metrics.Counter.v ~help:"Queue close operations" ~labels
        "octf_queue_closed_total";
  }

type t = {
  q_name : string;
  q_capacity : int;
  q_components : int;
  kind : kind;
  m : queue_metrics;
  mutable elements : Tensor.t array list;  (* head = front *)
  mutable tail : Tensor.t array list;  (* reversed back *)
  mutable count : int;
  mutable closed : bool;
  mutex : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
}

let create ?(kind = Fifo) ~name ~capacity ~num_components () =
  if capacity <= 0 then invalid_arg "Queue_impl.create: capacity must be > 0";
  if num_components <= 0 then
    invalid_arg "Queue_impl.create: num_components must be > 0";
  {
    q_name = name;
    q_capacity = capacity;
    q_components = num_components;
    kind;
    m = queue_metrics name;
    elements = [];
    tail = [];
    count = 0;
    closed = false;
    mutex = Mutex.create ();
    not_empty = Condition.create ();
    not_full = Condition.create ();
  }

let name t = t.q_name

let capacity t = t.q_capacity

let num_components t = t.q_components

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let size t = with_lock t (fun () -> t.count)

let is_closed t = with_lock t (fun () -> t.closed)

(* Called with the queue mutex held; the metric mutexes are leaves. *)
let sync_depth t =
  let d = float_of_int t.count in
  Metrics.Gauge.set t.m.m_depth d;
  Metrics.Gauge.max_to t.m.m_depth_max d

let push_back t elt =
  t.tail <- elt :: t.tail;
  t.count <- t.count + 1;
  Metrics.Counter.incr t.m.m_enqueued;
  sync_depth t

let pop_front t =
  (match t.kind with
  | Fifo -> ()
  | Shuffle rng ->
      (* Rotate a random element to the front. *)
      let all = t.elements @ List.rev t.tail in
      let arr = Array.of_list all in
      let i = Rng.int rng (Array.length arr) in
      let tmp = arr.(0) in
      arr.(0) <- arr.(i);
      arr.(i) <- tmp;
      t.elements <- Array.to_list arr;
      t.tail <- []);
  let e =
    match t.elements with
    | e :: rest ->
        t.elements <- rest;
        t.count <- t.count - 1;
        e
    | [] -> (
        match List.rev t.tail with
        | e :: rest ->
            t.elements <- rest;
            t.tail <- [];
            t.count <- t.count - 1;
            e
        | [] -> assert false)
  in
  Metrics.Counter.incr t.m.m_dequeued;
  sync_depth t;
  e

(* Wake this queue's waiters when [cancel] fires: broadcast both
   conditions while holding the mutex, so a waiter between its cancel
   check and Condition.wait (which still holds the mutex) cannot miss
   the wakeup. Waiters re-check the token after every wake. *)
let wake t () =
  Mutex.lock t.mutex;
  Condition.broadcast t.not_empty;
  Condition.broadcast t.not_full;
  Mutex.unlock t.mutex

let enqueue ?cancel t components =
  if Array.length components <> t.q_components then
    invalid_arg
      (Printf.sprintf "Queue %s: enqueue of %d components, expected %d"
         t.q_name (Array.length components) t.q_components);
  Cancel.with_waker cancel (wake t) (fun () ->
      with_lock t (fun () ->
          if t.count >= t.q_capacity && not t.closed then begin
            (* Fun.protect so a cancellation raised from the wait loop
               still decrements the blocked gauge. *)
            Metrics.Gauge.incr t.m.m_blocked_enq;
            Fun.protect
              ~finally:(fun () -> Metrics.Gauge.decr t.m.m_blocked_enq)
              (fun () ->
                while
                  t.count >= t.q_capacity && not t.closed
                  && (Cancel.check_opt cancel; true)
                do
                  Condition.wait t.not_full t.mutex
                done)
          end;
          Cancel.check_opt cancel;
          if t.closed then raise (Closed t.q_name);
          push_back t components;
          Condition.signal t.not_empty))

let dequeue_locked ?cancel t =
  if t.count = 0 && not t.closed then begin
    Metrics.Gauge.incr t.m.m_blocked_deq;
    Fun.protect
      ~finally:(fun () -> Metrics.Gauge.decr t.m.m_blocked_deq)
      (fun () ->
        while t.count = 0 && not t.closed && (Cancel.check_opt cancel; true) do
          Condition.wait t.not_empty t.mutex
        done)
  end;
  Cancel.check_opt cancel;
  if t.count = 0 then raise (Closed t.q_name);
  let e = pop_front t in
  Condition.signal t.not_full;
  e

let dequeue ?cancel t =
  Cancel.with_waker cancel (wake t) (fun () ->
      with_lock t (fun () -> dequeue_locked ?cancel t))

let try_dequeue t =
  with_lock t (fun () ->
      if t.count = 0 then begin
        if t.closed then raise (Closed t.q_name);
        None
      end
      else begin
        let e = pop_front t in
        Condition.signal t.not_full;
        Some e
      end)

let dequeue_many ?cancel t n =
  if n <= 0 then invalid_arg "Queue_impl.dequeue_many: n must be > 0";
  let elements =
    Cancel.with_waker cancel (wake t) (fun () ->
        with_lock t (fun () ->
            (* On closure/cancellation mid-collection, requeue what was
               already taken so no element is silently lost. *)
            let taken = ref [] in
            (try
               for _ = 1 to n do
                 taken := dequeue_locked ?cancel t :: !taken
               done
             with e ->
               t.elements <- List.rev_append !taken t.elements;
               t.count <- t.count + List.length !taken;
               sync_depth t;
               Condition.broadcast t.not_empty;
               raise e);
            List.rev !taken))
  in
  Array.init t.q_components (fun c ->
      Tensor_ops.stack (List.map (fun e -> e.(c)) elements))

let close t =
  with_lock t (fun () ->
      if not t.closed then Metrics.Counter.incr t.m.m_closed;
      t.closed <- true;
      Condition.broadcast t.not_empty;
      Condition.broadcast t.not_full)
