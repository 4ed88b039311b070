#include "server/resolver.h"

#include <algorithm>

#include "dns/wire.h"
#include "server/cache_store.h"
#include "util/assert.h"
#include "util/logging.h"

namespace dnscup::server {

using dns::Message;
using dns::Name;
using dns::Opcode;
using dns::Rcode;
using dns::ResourceRecord;
using dns::RRClass;
using dns::RRset;
using dns::RRType;

namespace {

/// Groups a section's records into RRsets (name/type order preserved).
std::vector<RRset> group_rrsets(const std::vector<ResourceRecord>& records) {
  std::vector<RRset> sets;
  for (const auto& rr : records) {
    RRset* target = nullptr;
    for (auto& set : sets) {
      if (set.type == rr.type() && set.name == rr.name) {
        target = &set;
        break;
      }
    }
    if (target == nullptr) {
      sets.push_back(RRset{rr.name, rr.type(), rr.rrclass, rr.ttl, {}});
      target = &sets.back();
    }
    target->add(rr.rdata);
  }
  return sets;
}

uint32_t soa_negative_ttl(const Message& response, uint32_t fallback) {
  for (const auto& rr : response.authority) {
    if (const auto* soa = std::get_if<dns::SOARdata>(&rr.rdata)) {
      return std::min(rr.ttl, soa->minimum);
    }
  }
  return fallback;
}

}  // namespace

CachingResolver::CachingResolver(net::Transport& transport,
                                 net::EventLoop& loop,
                                 std::vector<net::Endpoint> root_servers,
                                 Config config)
    : transport_(&transport),
      loop_(&loop),
      roots_(std::move(root_servers)),
      config_(config),
      cache_(config.cache_capacity, config.metrics,
             config.cache_store ? config.cache_store() : nullptr) {
  DNSCUP_ASSERT(!roots_.empty());
  auto& registry = metrics::resolve(config.metrics);
  const metrics::Labels base{
      {"instance", registry.next_instance("resolver")}};
  auto labeled = [&](const char* key, const char* value) {
    metrics::Labels labels = base;
    labels.emplace_back(key, value);
    return labels;
  };
  stats_.client_queries =
      registry.counter("resolver_queries", labeled("side", "client"));
  stats_.fast_hits = registry.counter("resolver_fast_hits", base);
  stats_.upstream_queries =
      registry.counter("resolver_queries", labeled("side", "upstream"));
  stats_.retransmissions = registry.counter("resolver_retransmissions", base);
  stats_.timeouts = registry.counter("resolver_timeouts", base);
  stats_.servfails = registry.counter("resolver_servfails", base);
  stats_.coalesced = registry.counter("resolver_coalesced", base);
  transport_->set_receive_handler(
      [this](const net::Endpoint& from, std::span<const uint8_t> data) {
        on_datagram(from, data);
      });
}

CachingResolver::Stats CachingResolver::stats() const {
  return Stats{
      .client_queries = stats_.client_queries,
      .fast_hits = stats_.fast_hits,
      .upstream_queries = stats_.upstream_queries,
      .retransmissions = stats_.retransmissions,
      .timeouts = stats_.timeouts,
      .servfails = stats_.servfails,
      .coalesced = stats_.coalesced,
  };
}

void CachingResolver::on_datagram(const net::Endpoint& from,
                                  std::span<const uint8_t> data) {
  if (try_fast_hit(from, data)) return;
  auto decoded = Message::decode(data);
  if (!decoded) {
    DNSCUP_LOG_DEBUG("resolver %s: undecodable datagram from %s",
                     transport_->local_endpoint().to_string().c_str(),
                     from.to_string().c_str());
    return;
  }
  const Message& msg = decoded.value();
  if (extension_ != nullptr && extension_->on_unsolicited(from, msg)) return;
  if (msg.flags.qr) {
    handle_upstream_response(from, msg);
    return;
  }
  if (msg.flags.opcode == Opcode::kQuery) {
    handle_client_query(from, msg);
    return;
  }
  // Anything else (UPDATE, NOTIFY at a resolver) is not implemented.
  Message resp = make_response(msg);
  resp.flags.rcode = Rcode::kNotImp;
  transport_->send(from, resp.encode());
}

bool CachingResolver::try_fast_hit(const net::Endpoint& from,
                                   std::span<const uint8_t> data) {
  // Preconditions under which the answer is byte-for-byte what decode +
  // handle_client_query + encode sends.  Every check runs before the
  // first side effect, so a declined datagram leaves no trace.
  if (data.size() < 12) return false;
  const auto be16 = [&data](std::size_t i) {
    return static_cast<uint16_t>(data[i] << 8 | data[i + 1]);
  };
  const dns::Flags flags = dns::Flags::unpack(be16(2));
  // QR=1 and the CACHE-UPDATE opcode are the extension's (on_unsolicited).
  if (flags.qr || flags.ext || flags.opcode != Opcode::kQuery) return false;
  if (be16(4) != 1 || be16(6) != 0 || be16(8) != 0 || be16(10) != 0) {
    return false;  // exactly one question, no other sections
  }
  // resolve_internal's depth guard, which only a negative limit trips at
  // depth 0.
  if (config_.max_cname_hops + config_.max_indirections < 0) return false;

  dns::ByteReader r(data);
  (void)r.seek(12);
  dns::NameView qname;
  if (!r.name_view(qname).ok()) return false;
  // A pointer-free qname, so the question is echoed verbatim below.
  if (r.offset() != 12 + qname.wire_length()) return false;
  const auto qtype_raw = r.u16();
  if (!qtype_raw.ok() || !r.u16().ok()) return false;  // qclass is echoed
  if (!r.at_end()) return false;  // trailing bytes: decode rejects them
  const std::size_t question_len = r.offset() - 12;
  const RRType qtype = static_cast<RRType>(qtype_raw.value());

  const net::SimTime now = loop_->now();
  const CacheKeyView key(qname, qtype);
  CacheEntry* entry = cache_.peek(key);
  if (entry == nullptr || !entry->fresh(now)) return false;

  // Committed.  The owning path's side effects, in its observable order:
  // the hook (which may send a re-negotiation refresh) before the LRU
  // touch of the answered entry.
  ++stats_.client_queries;
  ++stats_.fast_hits;
  if (extension_ != nullptr) extension_->on_client_query(key, *entry);
  cache_.record_hit(key, *entry);

  dns::Flags rf;
  rf.qr = true;
  rf.opcode = Opcode::kQuery;
  rf.rd = flags.rd;
  rf.ra = true;
  if (entry->negative && entry->negative_rcode == Rcode::kNXDomain) {
    rf.rcode = Rcode::kNXDomain;
  }
  const std::size_t answers = entry->negative ? 0 : entry->rrset.size();

  answer_arena_.clear();
  dns::ByteWriter w(answer_arena_);
  w.begin_message();
  w.u16(be16(0));
  w.u16(rf.pack());
  w.u16(1);
  w.u16(static_cast<uint16_t>(answers));
  w.u16(0);
  w.u16(0);
  // The echoed qname registers as a compression target, so the owner
  // names compress against it exactly as on the owning path.
  w.bytes(data.subspan(12, question_len));
  w.register_name(12);
  if (answers > 0) {
    dns::encode_rrset(entry->rrset, entry->remaining_ttl(now), w);
  }
  transport_->send(from, w.message());
  return true;
}

void CachingResolver::handle_client_query(const net::Endpoint& from,
                                          const Message& request) {
  ++stats_.client_queries;
  if (request.questions.size() != 1) {
    Message resp = make_response(request);
    resp.flags.rcode = Rcode::kFormErr;
    transport_->send(from, resp.encode());
    return;
  }
  const auto& q = request.questions[0];
  resolve(q.qname, q.qtype, [this, from, request](const Outcome& outcome) {
    Message resp = make_response(request);
    resp.flags.ra = true;
    switch (outcome.status) {
      case Outcome::Status::kOk:
        resp.answers = outcome.cname_chain;
        for (auto& rec : outcome.rrset.to_records()) {
          resp.answers.push_back(std::move(rec));
        }
        break;
      case Outcome::Status::kNXDomain:
        resp.flags.rcode = Rcode::kNXDomain;
        break;
      case Outcome::Status::kNoData:
        break;  // NOERROR, empty answer
      case Outcome::Status::kServFail:
      case Outcome::Status::kTimeout:
        resp.flags.rcode = Rcode::kServFail;
        break;
    }
    transport_->send(from, resp.encode());
  });
}

void CachingResolver::resolve(const Name& qname, RRType qtype, Callback cb) {
  if (extension_ != nullptr) extension_->on_client_query(qname, qtype);
  resolve_internal(qname, qtype, 0, std::move(cb));
}

void CachingResolver::refresh(const Name& qname, RRType qtype, Callback cb) {
  // Straight to the network, bypassing the freshness check; coalesces
  // with any identical in-flight question.
  start_task(qname, qtype, 0, std::move(cb));
}

void CachingResolver::resolve_internal(const Name& qname, RRType qtype,
                                       int depth, Callback cb) {
  if (depth > config_.max_cname_hops + config_.max_indirections) {
    Outcome out;
    out.status = Outcome::Status::kServFail;
    ++stats_.servfails;
    cb(out);
    return;
  }
  if (answer_from_cache(qname, qtype, depth, cb)) return;
  start_task(qname, qtype, depth, std::move(cb));
}

bool CachingResolver::answer_from_cache(const Name& qname, RRType qtype,
                                        int depth, const Callback& cb) {
  const net::SimTime now = loop_->now();
  if (const CacheEntry* entry = cache_.lookup(qname, qtype, now)) {
    Outcome out;
    out.from_cache = true;
    if (entry->negative) {
      out.status = entry->negative_rcode == Rcode::kNXDomain
                       ? Outcome::Status::kNXDomain
                       : Outcome::Status::kNoData;
    } else {
      out.status = Outcome::Status::kOk;
      out.rrset = entry->rrset;
      out.rrset.ttl = entry->remaining_ttl(now);
    }
    cb(out);
    return true;
  }
  // A cached CNAME may still lead to the answer.
  if (qtype != RRType::kCNAME && qtype != RRType::kANY) {
    if (const CacheEntry* cname = cache_.lookup(qname, RRType::kCNAME, now);
        cname != nullptr && !cname->negative) {
      const auto& target =
          std::get<dns::CNAMERdata>(cname->rrset.rdatas.front()).target;
      auto link = cname->rrset.to_records();
      resolve_internal(
          target, qtype, depth + 1,
          [cb, link = std::move(link)](const Outcome& inner) {
            Outcome out = inner;
            out.cname_chain.insert(out.cname_chain.begin(), link.begin(),
                                   link.end());
            cb(out);
          });
      return true;
    }
  }
  return false;
}

void CachingResolver::start_task(const Name& qname, RRType qtype, int depth,
                                 Callback cb) {
  // Coalesce with an identical in-flight question.
  const TaskKey key{qname, qtype};
  if (auto it = task_by_key_.find(key); it != task_by_key_.end()) {
    ++stats_.coalesced;
    tasks_.at(it->second).callbacks.push_back(std::move(cb));
    return;
  }
  uint16_t qid = next_qid_++;
  if (qid == 0) qid = next_qid_++;  // id 0 is reserved for client traffic
  while (tasks_.count(qid) > 0) qid = next_qid_++;

  Task task;
  task.qname = qname;
  task.qtype = qtype;
  task.depth = depth;
  task.callbacks.push_back(std::move(cb));
  task.servers = best_cached_servers(qname);
  task.retries_left = config_.max_retries;
  tasks_.emplace(qid, std::move(task));
  task_by_key_.emplace(key, qid);
  send_current(qid);
}

std::vector<net::Endpoint> CachingResolver::best_cached_servers(
    const Name& qname) {
  // Start at the deepest ancestor whose NS set (with usable glue) is
  // cached — the standard "closest known zone cut" optimization, without
  // which every miss would hit the root.
  const net::SimTime now = loop_->now();
  Name zone = qname;
  while (!zone.is_root()) {
    if (const CacheEntry* ns = cache_.lookup(zone, RRType::kNS, now);
        ns != nullptr && !ns->negative) {
      std::vector<net::Endpoint> servers;
      for (const auto& rd : ns->rrset.rdatas) {
        const auto& ns_name = std::get<dns::NSRdata>(rd).nsdname;
        if (const CacheEntry* glue = cache_.lookup(ns_name, RRType::kA, now);
            glue != nullptr && !glue->negative) {
          for (const auto& a : glue->rrset.rdatas) {
            servers.push_back(
                net::Endpoint{std::get<dns::ARdata>(a).address.addr, 53});
          }
        }
      }
      if (!servers.empty()) return servers;
    }
    zone = zone.parent();
  }
  return roots_;
}

void CachingResolver::send_current(uint16_t qid) {
  Task& task = tasks_.at(qid);
  DNSCUP_ASSERT(task.server_idx < task.servers.size());
  Message query;
  query.id = qid;
  query.flags.opcode = Opcode::kQuery;
  query.questions.push_back(
      dns::Question{task.qname, task.qtype, RRClass::kIN, 0});
  if (extension_ != nullptr) extension_->on_outgoing_query(query);
  ++stats_.upstream_queries;
  transport_->send(task.servers[task.server_idx], query.encode());
  task.timer = loop_->schedule(config_.query_timeout,
                               [this, qid] { on_timeout(qid); });
}

void CachingResolver::on_timeout(uint16_t qid) {
  auto it = tasks_.find(qid);
  if (it == tasks_.end()) return;
  ++stats_.timeouts;
  Task& task = it->second;
  if (task.retries_left > 0) {
    --task.retries_left;
    ++stats_.retransmissions;
    send_current(qid);
    return;
  }
  advance_server(qid);
}

void CachingResolver::advance_server(uint16_t qid) {
  Task& task = tasks_.at(qid);
  ++task.server_idx;
  task.retries_left = config_.max_retries;
  if (task.server_idx >= task.servers.size()) {
    Outcome out;
    out.status = Outcome::Status::kTimeout;
    finish(qid, std::move(out));
    return;
  }
  send_current(qid);
}

void CachingResolver::finish(uint16_t qid, Outcome outcome) {
  auto it = tasks_.find(qid);
  DNSCUP_ASSERT(it != tasks_.end());
  it->second.timer.cancel();
  // Detach state before invoking callbacks: they may start new queries.
  std::vector<Callback> callbacks = std::move(it->second.callbacks);
  task_by_key_.erase(TaskKey{it->second.qname, it->second.qtype});
  tasks_.erase(it);
  if (outcome.status == Outcome::Status::kServFail) ++stats_.servfails;
  for (const auto& cb : callbacks) cb(outcome);
}

void CachingResolver::handle_upstream_response(const net::Endpoint& from,
                                               const Message& response) {
  auto it = tasks_.find(response.id);
  if (it == tasks_.end()) return;  // late or spoofed; ignore
  Task& task = it->second;
  // Accept only from the server we queried (simple spoofing guard).
  if (task.server_idx >= task.servers.size() ||
      from != task.servers[task.server_idx]) {
    return;
  }
  if (response.questions.size() != 1 ||
      !(response.questions[0].qname == task.qname) ||
      response.questions[0].qtype != task.qtype) {
    return;  // mismatched echo
  }
  task.timer.cancel();
  // The extension observes the response *after* the cache has been
  // updated from it, so lease state can attach to the fresh entries.
  const auto notify_extension = [this, &from, &response] {
    if (extension_ != nullptr) extension_->on_response(from, response);
  };

  switch (response.flags.rcode) {
    case Rcode::kNoError:
      break;
    case Rcode::kNXDomain: {
      const uint32_t ttl =
          soa_negative_ttl(response, config_.default_negative_ttl);
      cache_.put_negative(task.qname, task.qtype, Rcode::kNXDomain, ttl,
                          loop_->now());
      notify_extension();
      Outcome out;
      out.status = Outcome::Status::kNXDomain;
      finish(response.id, std::move(out));
      return;
    }
    default:
      // SERVFAIL/REFUSED/...: try the next server in the list.
      notify_extension();
      advance_server(response.id);
      return;
  }

  if (!response.answers.empty()) {
    process_answer(response.id, response, notify_extension);
    return;
  }
  if (!response.authority.empty() && !response.flags.aa) {
    notify_extension();
    process_referral(response.id, response);
    return;
  }
  // NOERROR with no answers from the authority: NODATA.
  const uint32_t ttl = soa_negative_ttl(response, config_.default_negative_ttl);
  cache_.put_negative(task.qname, task.qtype, Rcode::kNoError, ttl,
                      loop_->now());
  notify_extension();
  Outcome out;
  out.status = Outcome::Status::kNoData;
  finish(response.id, std::move(out));
}

void CachingResolver::process_answer(
    uint16_t qid, const Message& response,
    const std::function<void()>& notify_extension) {
  Task& task = tasks_.at(qid);
  const net::SimTime now = loop_->now();
  const auto sets = group_rrsets(response.answers);
  for (const auto& set : sets) cache_.put(set, now);
  notify_extension();

  // Follow the CNAME chain from qname within this answer.
  Name current = task.qname;
  std::vector<ResourceRecord> chain;
  for (int hop = 0; hop <= config_.max_cname_hops; ++hop) {
    const RRset* exact = nullptr;
    const RRset* cname = nullptr;
    for (const auto& set : sets) {
      if (!(set.name == current)) continue;
      if (set.type == task.qtype) exact = &set;
      if (set.type == RRType::kCNAME) cname = &set;
    }
    if (exact != nullptr) {
      Outcome out;
      out.status = Outcome::Status::kOk;
      out.rrset = *exact;
      out.cname_chain = std::move(chain);
      finish(qid, std::move(out));
      return;
    }
    if (cname != nullptr && task.qtype != RRType::kCNAME) {
      for (auto& rec : cname->to_records()) chain.push_back(std::move(rec));
      current = std::get<dns::CNAMERdata>(cname->rdatas.front()).target;
      continue;
    }
    break;
  }

  // The answer ended in a dangling CNAME: restart resolution at the target.
  if (!chain.empty()) {
    const int depth = task.depth + 1;
    const RRType qtype = task.qtype;
    const Name target = current;
    Outcome base;
    std::vector<Callback> callbacks = std::move(task.callbacks);
    task_by_key_.erase(TaskKey{task.qname, task.qtype});
    tasks_.erase(qid);
    resolve_internal(
        target, qtype, depth,
        [callbacks = std::move(callbacks),
         chain = std::move(chain)](const Outcome& inner) {
          Outcome out = inner;
          out.cname_chain.insert(out.cname_chain.begin(), chain.begin(),
                                 chain.end());
          for (const auto& cb : callbacks) cb(out);
        });
    return;
  }

  // Answers present but unrelated to the question: treat as failure.
  Outcome out;
  out.status = Outcome::Status::kServFail;
  finish(qid, std::move(out));
}

void CachingResolver::process_referral(uint16_t qid,
                                       const Message& response) {
  Task& task = tasks_.at(qid);
  if (++task.referrals > config_.max_referrals) {
    Outcome out;
    out.status = Outcome::Status::kServFail;
    finish(qid, std::move(out));
    return;
  }
  const net::SimTime now = loop_->now();
  // Cache the NS set and glue.
  for (const auto& set : group_rrsets(response.authority)) {
    if (set.type == RRType::kNS) cache_.put(set, now);
  }
  for (const auto& set : group_rrsets(response.additional)) {
    if (set.type == RRType::kA || set.type == RRType::kAAAA) {
      cache_.put(set, now);
    }
  }

  // Collect nameserver addresses from glue.
  std::vector<net::Endpoint> next_servers;
  std::vector<Name> ns_without_glue;
  for (const auto& rr : response.authority) {
    const auto* ns = std::get_if<dns::NSRdata>(&rr.rdata);
    if (ns == nullptr) continue;
    bool found = false;
    for (const auto& glue : response.additional) {
      if (glue.type() == RRType::kA && glue.name == ns->nsdname) {
        next_servers.push_back(
            net::Endpoint{std::get<dns::ARdata>(glue.rdata).address.addr, 53});
        found = true;
      }
    }
    if (!found) ns_without_glue.push_back(ns->nsdname);
  }

  if (!next_servers.empty()) {
    task.servers = std::move(next_servers);
    task.server_idx = 0;
    task.retries_left = config_.max_retries;
    send_current(qid);
    return;
  }

  // Glueless delegation: resolve the first NS name, then continue.
  if (!ns_without_glue.empty() &&
      task.depth < config_.max_indirections + config_.max_cname_hops) {
    const Name ns_name = ns_without_glue.front();
    const int depth = task.depth + 1;
    resolve_internal(
        ns_name, RRType::kA, depth, [this, qid](const Outcome& inner) {
          auto it = tasks_.find(qid);
          if (it == tasks_.end()) return;
          if (inner.status != Outcome::Status::kOk || inner.rrset.empty()) {
            Outcome out;
            out.status = Outcome::Status::kServFail;
            finish(qid, std::move(out));
            return;
          }
          Task& task = it->second;
          task.servers.clear();
          for (const auto& rd : inner.rrset.rdatas) {
            task.servers.push_back(
                net::Endpoint{std::get<dns::ARdata>(rd).address.addr, 53});
          }
          task.server_idx = 0;
          task.retries_left = config_.max_retries;
          send_current(qid);
        });
    return;
  }

  Outcome out;
  out.status = Outcome::Status::kServFail;
  finish(qid, std::move(out));
}

}  // namespace dnscup::server
